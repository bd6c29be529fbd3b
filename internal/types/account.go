package types

import (
	"strconv"

	"timebounds/internal/spec"
)

// Operation kinds on bank accounts.
const (
	// OpDeposit adds the (int) amount and returns nil. Pure mutator,
	// eventually self-commuting, non-overwriter (like increment).
	OpDeposit spec.OpKind = "deposit"
	// OpWithdraw deducts the (int) amount if the balance covers it and
	// returns whether it succeeded. Both mutator and accessor → OOP, and
	// strongly immediately non-self-commuting: two withdrawals of the full
	// balance cannot both succeed.
	OpWithdraw spec.OpKind = "withdraw"
	// OpBalance returns the balance. Pure accessor.
	OpBalance spec.OpKind = "balance"
)

// Account is a bank account — the applied shared object the paper's
// introduction motivates (electronic commerce). deposit rides the ε+X fast
// path, withdraw needs the totally ordered d+ε path (it is strongly
// immediately non-self-commuting, so by Theorem C.1 no implementation can
// answer it in less than d+min{ε,u,d/3}), and balance takes d+ε-X.
type Account struct{}

var (
	_ spec.DataType = Account{}
	_ spec.Equaler  = Account{}
)

// NewAccount returns an account with balance zero.
func NewAccount() Account { return Account{} }

// Name implements spec.DataType.
func (Account) Name() string { return "account" }

// InitialState implements spec.DataType.
func (Account) InitialState() spec.State { return int(0) }

// Apply implements spec.DataType.
func (Account) Apply(s spec.State, kind spec.OpKind, arg spec.Value) (spec.State, spec.Value) {
	bal, _ := s.(int)
	switch kind {
	case OpDeposit:
		amt, _ := arg.(int)
		if amt < 0 {
			return spec.BoxInt(bal), nil
		}
		// BoxInt keeps the running balance out of the allocator on the
		// replica re-apply hot path (see types.Counter.Apply).
		return spec.BoxInt(bal + amt), nil
	case OpWithdraw:
		amt, _ := arg.(int)
		if amt < 0 || amt > bal {
			return spec.BoxInt(bal), false
		}
		return spec.BoxInt(bal - amt), true
	case OpBalance:
		v := spec.BoxInt(bal)
		return v, v
	default:
		return spec.BoxInt(bal), nil
	}
}

// Kinds implements spec.DataType.
func (Account) Kinds() []spec.OpKind { return []spec.OpKind{OpDeposit, OpWithdraw, OpBalance} }

// Class implements spec.DataType.
func (Account) Class(kind spec.OpKind) spec.OpClass {
	switch kind {
	case OpDeposit:
		return spec.ClassPureMutator
	case OpBalance:
		return spec.ClassPureAccessor
	default:
		return spec.ClassOther
	}
}

// EncodeState implements spec.DataType.
func (Account) EncodeState(s spec.State) string {
	bal, _ := s.(int)
	var arr [32]byte
	return string(strconv.AppendInt(append(arr[:0], "acct:"...), int64(bal), 10))
}

// EqualStates implements spec.Equaler.
func (Account) EqualStates(a, b spec.State) bool {
	x, _ := a.(int)
	y, _ := b.(int)
	return x == y
}
