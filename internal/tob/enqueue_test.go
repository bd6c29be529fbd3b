package tob

import (
	"slices"
	"testing"

	"timebounds/internal/sim"
)

// seqLog records the sequence numbers delivered to it.
type seqLog []int64

func (l *seqLog) Deliver(_ sim.Env, m sim.Msg) { *l = append(*l, m.Seq) }

// TestEnqueueDropsDuplicates: a copy of a stamped message that was
// already delivered, or is still buffered, is dropped, so every message
// is delivered once and the copy never blocks the ones after it.
func TestEnqueueDropsDuplicates(t *testing.T) {
	for name, seqs := range map[string][]int64{
		"late":     {0, 1, 0, 2},    // the copy arrives after its delivery
		"buffered": {1, 1, 0, 2, 1}, // the copy arrives while its original waits for 0
	} {
		t.Run(name, func(t *testing.T) {
			var got seqLog
			b := &Broadcaster{Target: &got}
			for _, s := range seqs {
				b.enqueue(nil, sim.Msg{Tag: msgStamped, Seq: s})
			}
			if want := []int64{0, 1, 2}; !slices.Equal(got, want) {
				t.Fatalf("delivered %v, want %v", got, want)
			}
			if len(b.pending) != 0 {
				t.Fatalf("%d messages still buffered", len(b.pending)-b.head)
			}
		})
	}
}
