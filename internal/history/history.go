// Package history records operation invocations and responses observed at
// the application layer of a run (Chapter III.A), in real time. Histories
// are the input to the linearizability checker (internal/check) and the
// latency harness (internal/workload).
package history

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"strings"

	"timebounds/internal/model"
	"timebounds/internal/spec"
)

// OpID identifies an operation within one history.
type OpID int

// Record is one operation execution: an invocation and, unless the
// operation is still pending, a matching response.
type Record struct {
	ID   OpID
	Proc model.ProcessID
	Kind spec.OpKind
	Arg  spec.Value
	// Ret is the response value; meaningless while Pending.
	Ret spec.Value
	// Invoke is the real time of the invocation.
	Invoke model.Time
	// Arrival is the real time the operation was offered to the process.
	// It equals Invoke unless the invocation was deferred behind a still-
	// pending operation (the one-pending-operation-per-process rule), in
	// which case Arrival is the original offered instant and Invoke the
	// later actual invocation. Sojourn measures from Arrival; the
	// linearizability checker and the class bounds measure from Invoke.
	Arrival model.Time
	// Respond is the real time of the response; meaningless while Pending.
	Respond model.Time
	// Pending is true if no response has been recorded.
	Pending bool
	// CertKind and CertVal are the operation's certificate key (Certify):
	// its place in the order the implementation executed it. They pack
	// into the padding after Pending, so a Record stays 96 bytes.
	CertKind CertKind
	CertVal  int32
}

// CertKind says how a certificate key orders its operation. A history's
// updates are keyed by one update kind: CertUpdate where the copies
// execute them in timestamp order (Algorithm 1), CertRank where one
// process fixes their order (a coordinator, a sequencer).
type CertKind uint8

const (
	// CertNone marks an operation without a certificate key.
	CertNone CertKind = iota
	// CertUpdate orders an update by its timestamp ⟨stamp clock, Proc⟩;
	// CertVal is the stamp clock minus Invoke.
	CertUpdate
	// CertAccessor places an accessor after the first CertVal updates in
	// update order.
	CertAccessor
	// CertRank orders an update by CertVal, its absolute rank in the
	// implementation's single apply order.
	CertRank
)

// IsUpdate reports whether k keys an update: the one predicate that
// tells a history's updates from its accessors and unkeyed records.
func (k CertKind) IsUpdate() bool { return k == CertUpdate || k == CertRank }

// Cert is a certificate key as its implementation states it.
type Cert struct {
	Kind CertKind
	// Key is the stamp clock of a CertUpdate, the rank of a CertRank, or
	// the number of updates executed before a CertAccessor evaluated.
	Key int64
}

// UpdateCert is the key of an update stamped at local clock time stamp.
func UpdateCert(stamp model.Time) Cert { return Cert{Kind: CertUpdate, Key: int64(stamp)} }

// RankCert is the key of the update applied after rank others.
func RankCert(rank int) Cert { return Cert{Kind: CertRank, Key: int64(rank)} }

// AccessorCert is the key of an accessor evaluated after applied updates.
func AccessorCert(applied int) Cert { return Cert{Kind: CertAccessor, Key: int64(applied)} }

// ApplyOrder keys operations in the order one process applies them — a
// coordinator's, or a sequencer's delivery order — by counting the
// updates applied so far.
type ApplyOrder struct{ updates int }

// Next returns the key of the operation applied next, whose kind is of
// class c: a pure accessor goes after the updates applied before it, any
// other operation is the next update in rank.
func (a *ApplyOrder) Next(c spec.OpClass) Cert {
	if c == spec.ClassPureAccessor {
		return AccessorCert(a.updates)
	}
	a.updates++
	return RankCert(a.updates - 1)
}

// OrderKey returns the record's certificate key as (major, minor): the
// stamp clock and Proc of a CertUpdate, the rank and 0 of a CertRank, the
// update count and Invoke of an accessor.
func (r Record) OrderKey() (major, minor int64) {
	switch r.CertKind {
	case CertUpdate:
		return int64(r.Invoke) + int64(r.CertVal), int64(r.Proc)
	case CertRank:
		return int64(r.CertVal), 0
	}
	return int64(r.CertVal), int64(r.Invoke)
}

// Latency returns the operation's response time (Respond - Invoke): the
// service latency the paper's per-class bounds constrain.
func (r Record) Latency() model.Time {
	if r.Pending {
		return model.Infinity
	}
	return r.Respond - r.Invoke
}

// Sojourn returns the operation's arrival-to-response time
// (Respond - Arrival): service latency plus any wait spent deferred behind
// the process's previous operation. Under open-loop (offered-rate) traffic
// this is the queueing-theoretic sojourn time — the quantity that detaches
// from the service bounds as offered load saturates a process.
func (r Record) Sojourn() model.Time {
	if r.Pending {
		return model.Infinity
	}
	return r.Respond - r.Arrival
}

// Wait returns the time the operation spent deferred before invocation
// (Invoke - Arrival); zero for operations invoked at their offered instant.
func (r Record) Wait() model.Time { return r.Invoke - r.Arrival }

// String implements fmt.Stringer.
func (r Record) String() string {
	if r.Pending {
		return fmt.Sprintf("#%d %s %s(%v) @%s pending", r.ID, r.Proc, r.Kind, r.Arg, r.Invoke)
	}
	return fmt.Sprintf("#%d %s %s(%v)→%v [%s,%s]",
		r.ID, r.Proc, r.Kind, r.Arg, r.Ret, r.Invoke, r.Respond)
}

// History is a set of operation records collected from one run.
type History struct {
	ops    []Record
	nextID OpID
	// unordered is set once a record is appended with an earlier Invoke
	// than its predecessor. Ids grow with appends, so while it is clear
	// the records are already in Ops() order — always the case for a
	// simulator's history, which invokes in dispatch (real-time) order.
	unordered bool
}

// New returns an empty history.
func New() *History { return &History{} }

// Invoke records a new invocation (offered and invoked at the same
// instant) and returns its id.
func (h *History) Invoke(proc model.ProcessID, kind spec.OpKind, arg spec.Value, at model.Time) OpID {
	return h.InvokeArrived(proc, kind, arg, at, at)
}

// InvokeArrived records an invocation that was offered at arrival but
// actually invoked at the (no earlier) time at — the deferred-invocation
// shape the simulator produces when an open-loop arrival lands while the
// process's previous operation is still pending.
func (h *History) InvokeArrived(proc model.ProcessID, kind spec.OpKind, arg spec.Value, at, arrival model.Time) OpID {
	if arrival > at {
		arrival = at
	}
	id := h.nextID
	h.nextID++
	if n := len(h.ops); n > 0 && at < h.ops[n-1].Invoke {
		h.unordered = true
	}
	h.ops = append(h.ops, Record{
		ID: id, Proc: proc, Kind: kind, Arg: arg, Invoke: at, Arrival: arrival, Pending: true,
	})
	return id
}

// FromRecords returns a history of copies of records, renumbered in order
// — how a projection of a run (one key's operations, say) becomes a
// history of its own that keeps its responses and certificate keys.
func FromRecords(records []Record) *History {
	h := &History{ops: make([]Record, len(records)), nextID: OpID(len(records))}
	for i, r := range records {
		r.ID = OpID(i)
		h.unordered = h.unordered || i > 0 && r.Invoke < records[i-1].Invoke
		h.ops[i] = r
	}
	return h
}

// UpdateOrder is the certificate keys (OrderKey) of a run's certified
// updates in the order its copies executed them.
type UpdateOrder [][2]int64

// UpdateOrder returns h's update order.
func (h *History) UpdateOrder() UpdateOrder {
	var o UpdateOrder
	for op := range h.All() {
		if op.CertKind.IsUpdate() {
			o = append(o, orderKey(op))
		}
	}
	slices.SortFunc(o, compareKeys)
	return o
}

// Rekey re-counts the accessor certificate keys of recs, a projection of
// the run, for the projection: an accessor that evaluated after the run's
// first k updates is placed after base plus those of upd, updates of the
// run, that are among them. Update keys need no change.
func (o UpdateOrder) Rekey(recs, upd []Record, base int) {
	keys := make([][2]int64, len(upd))
	for i, u := range upd {
		keys[i] = orderKey(u)
	}
	slices.SortFunc(keys, compareKeys)
	for i := range recs {
		if r := &recs[i]; r.CertKind == CertAccessor {
			n := len(keys)
			if int(r.CertVal) < len(o) {
				n, _ = slices.BinarySearchFunc(keys, o[r.CertVal], compareKeys)
			}
			r.CertVal = int32(base + n)
		}
	}
}

func orderKey(r Record) [2]int64 {
	major, minor := r.OrderKey()
	return [2]int64{major, minor}
}

func compareKeys(a, b [2]int64) int { return slices.Compare(a[:], b[:]) }

// Respond records the response of a previously invoked operation.
func (h *History) Respond(id OpID, ret spec.Value, at model.Time) error {
	if i := h.index(id); i >= 0 {
		return h.respondAt(i, ret, at)
	}
	return fmt.Errorf("history: response for unknown op #%d", id)
}

// index returns the position of operation id's record, or -1.
func (h *History) index(id OpID) int {
	// Ids are assigned densely in invocation order, so the record for id
	// lives at index id — the scan below only backs up the invariant.
	if i := int(id); i >= 0 && i < len(h.ops) && h.ops[i].ID == id {
		return i
	}
	for i := range h.ops {
		if h.ops[i].ID == id {
			return i
		}
	}
	return -1
}

// Certify records c as operation id's certificate key (Record.CertKind).
// An update's stamp is stored relative to its Invoke; a key the record
// cannot hold in an int32 leaves the operation uncertified, as does an
// unknown id.
func (h *History) Certify(id OpID, c Cert) {
	i := h.index(id)
	if i < 0 {
		return
	}
	r := &h.ops[i]
	v := c.Key
	if c.Kind == CertUpdate {
		v -= int64(r.Invoke)
	}
	if v != int64(int32(v)) {
		r.CertKind, r.CertVal = CertNone, 0
		return
	}
	r.CertKind, r.CertVal = c.Kind, int32(v)
}

func (h *History) respondAt(i int, ret spec.Value, at model.Time) error {
	if !h.ops[i].Pending {
		return fmt.Errorf("history: duplicate response for op #%d", h.ops[i].ID)
	}
	if at < h.ops[i].Invoke {
		return fmt.Errorf("history: response at %s before invocation at %s", at, h.ops[i].Invoke)
	}
	h.ops[i].Pending = false
	h.ops[i].Ret = ret
	h.ops[i].Respond = at
	return nil
}

// Ops returns a copy of the records, sorted by invocation time then id.
func (h *History) Ops() []Record {
	return h.AppendOps(nil)
}

// AppendOps appends the records, sorted by invocation time then id, to
// dst and returns the extended slice. Passing a reused buffer (dst[:0])
// makes the copy allocation-free once the buffer has grown to the
// history size — the checker's arena path (internal/check.Arena).
func (h *History) AppendOps(dst []Record) []Record {
	base := len(dst)
	dst = append(dst, h.ops...)
	out := dst[base:]
	slices.SortFunc(out, func(a, b Record) int {
		if a.Invoke != b.Invoke {
			return cmp.Compare(a.Invoke, b.Invoke)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return dst
}

// All iterates over the records in Ops() order. It is the read-only
// alternative to Ops: when the records were appended in (Invoke, ID)
// order — every simulator history — it walks them in place and copies
// nothing; otherwise it iterates over a sorted copy. The history must not
// change during the iteration.
//
//tb:hotpath
func (h *History) All() iter.Seq[Record] {
	return func(yield func(Record) bool) {
		ops := h.ops
		if h.unordered {
			ops = h.Ops()
		}
		for _, r := range ops {
			if !yield(r) {
				return
			}
		}
	}
}

// Grow reserves capacity for n additional records, so a run whose
// operation count is known up front (a scheduled workload) appends its
// records without incremental reallocation.
func (h *History) Grow(n int) {
	if n <= 0 {
		return
	}
	h.ops = slices.Grow(h.ops, n)
}

// Len returns the number of recorded operations.
func (h *History) Len() int { return len(h.ops) }

// PendingCount returns the number of operations without a response.
func (h *History) PendingCount() int {
	n := 0
	for _, op := range h.ops {
		if op.Pending {
			n++
		}
	}
	return n
}

// Complete reports whether every invocation has a matching response.
func (h *History) Complete() bool { return h.PendingCount() == 0 }

// Completed reports whether the operation has a recorded response.
// Unknown ids report false.
func (h *History) Completed(id OpID) bool {
	i := h.index(id)
	return i >= 0 && !h.ops[i].Pending
}

// MaxLatency returns the largest completed-operation latency for the given
// kind ("" means all kinds) and whether any such operation exists.
func (h *History) MaxLatency(kind spec.OpKind) (model.Time, bool) {
	var maxL model.Time
	found := false
	for _, op := range h.ops {
		if op.Pending || (kind != "" && op.Kind != kind) {
			continue
		}
		if l := op.Latency(); !found || l > maxL {
			maxL = l
		}
		found = true
	}
	return maxL, found
}

// String implements fmt.Stringer.
func (h *History) String() string {
	ops := h.Ops()
	lines := make([]string, len(ops))
	for i, op := range ops {
		lines[i] = op.String()
	}
	return strings.Join(lines, "\n")
}
