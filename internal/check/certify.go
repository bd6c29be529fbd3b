package check

import (
	"cmp"
	"math"
	"slices"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/spec"
)

// certKey is one record's place in its history's certificate: updates
// sort before accessors, each by the record's key (Record.OrderKey), then
// by operation id.
type certKey struct {
	accessor     bool
	major, minor int64
	id           history.OpID
	idx          int32 // the record's index in the sorted ops
}

func compareCertKeys(a, b certKey) int {
	if a.accessor != b.accessor {
		if a.accessor {
			return 1
		}
		return -1
	}
	if c := cmp.Compare(a.major, b.major); c != 0 {
		return c
	}
	if c := cmp.Compare(a.minor, b.minor); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// certified tries the order the implementation executed the history in,
// as its records' certificate keys state it: updates by their key (a
// ⟨stamp clock, process⟩ timestamp or an apply rank), each accessor
// after the number of updates its copy had executed, accessors sharing
// that number in (Invoke, ID) order. That order is a linearization iff
// no operation in it responds before an operation ordered earlier was
// invoked, and replaying it reproduces every return: a sort, one sweep
// and one replay. ok is false when a record is
// pending or uncertified or the order fails either test; the search then
// decides, so a certificate never changes a verdict.
func (a *Arena) certified(dt spec.DataType, ops []history.Record) (Result, bool) {
	keys := a.keys[:0]
	updates := 0
	for i := range ops {
		op := &ops[i]
		if op.Pending || op.CertKind == history.CertNone {
			a.keys = keys
			return Result{}, false
		}
		major, minor := op.OrderKey()
		accessor := !op.CertKind.IsUpdate()
		if !accessor {
			updates++
		}
		keys = append(keys, certKey{accessor: accessor, major: major, minor: minor, id: op.ID, idx: int32(i)})
	}
	a.keys = keys
	slices.SortFunc(keys, compareCertKeys)
	// An accessor keyed k goes after the first k updates.
	order := a.order[:0]
	next := 0
	for _, k := range keys[updates:] {
		for ; next < updates && int64(next) < k.major; next++ {
			order = append(order, keys[next].idx)
		}
		order = append(order, k.idx)
	}
	for ; next < updates; next++ {
		order = append(order, keys[next].idx)
	}
	a.order = order
	latest := model.Time(math.MinInt64)
	for _, i := range order {
		if ops[i].Respond < latest {
			return Result{}, false
		}
		latest = max(latest, ops[i].Invoke)
	}
	wit, ok := replay(dt, ops, order)
	if !ok {
		return Result{}, false
	}
	return Result{Linearizable: true, Witness: wit, Certified: true}, true
}

// replay applies ops in order (record indexes) to a private copy of dt's
// initial state — a spec.Owned, so a Mutator's copy updates in place —
// and reports whether every return equals the specification's; if so,
// the order's ids are the witness.
func replay(dt spec.DataType, ops []history.Record, order []int32) ([]history.OpID, bool) {
	st := spec.NewOwned(dt)
	for _, i := range order {
		if !spec.ValueEqual(st.Apply(ops[i].Kind, ops[i].Arg), ops[i].Ret) {
			return nil, false
		}
	}
	wit := make([]history.OpID, len(order))
	for j, i := range order {
		wit[j] = ops[i].ID
	}
	return wit, true
}
