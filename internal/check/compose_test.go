package check

import (
	"strings"
	"testing"
)

func TestComposeAllLinearizable(t *testing.T) {
	c := Compose(
		Component{Name: "shard-0", Checked: true, Linearizable: true},
		Component{Name: "shard-1", Checked: true, Linearizable: true},
	)
	if !c.Checked() || !c.Linearizable() {
		t.Fatalf("composition of linearizable components must be linearizable: %+v", c)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if f := c.Failing(); len(f) != 0 {
		t.Fatalf("no component should fail, got %v", f)
	}
}

func TestComposeOneViolationFailsWhole(t *testing.T) {
	c := Compose(
		Component{Name: "shard-0", Checked: true, Linearizable: true},
		Component{Name: "shard-1", Checked: true, Linearizable: false},
		Component{Name: "shard-2", Checked: true, Linearizable: true},
	)
	if c.Linearizable() {
		t.Fatal("a non-linearizable component must fail the composed verdict")
	}
	if !c.Checked() {
		t.Fatal("all components were checked")
	}
	f := c.Failing()
	if len(f) != 1 || f[0] != "shard-1" {
		t.Fatalf("Failing() = %v, want [shard-1]", f)
	}
	if err := c.Err(); err == nil {
		t.Fatal("Err() must report the violating component")
	}
}

func TestComposeUncheckedComponentLeavesCompositionUnchecked(t *testing.T) {
	c := Compose(
		Component{Name: "shard-0", Checked: true, Linearizable: true},
		Component{Name: "shard-1", Checked: false},
	)
	if c.Checked() {
		t.Fatal("an unchecked component must leave the composition unchecked")
	}
	if c.Linearizable() {
		t.Fatal("an unchecked composition must not claim linearizability")
	}
	if err := c.Err(); err == nil {
		t.Fatal("Err() must flag the unchecked component")
	}
}

func TestComposeEmptyIsVacuouslyLinearizable(t *testing.T) {
	c := Compose()
	if !c.Checked() || !c.Linearizable() {
		t.Fatal("the empty composition is vacuously checked and linearizable")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestComposeDegenerateInputs pins the mutual consistency of Checked,
// Linearizable, Failing, and Err on the edge compositions the sharded
// engine can actually produce, including the Report.OK-style invariant:
//
//	Err() == nil  ⟺  Linearizable()  ⟺  Checked() && len(Failing()) == 0
func TestComposeDegenerateInputs(t *testing.T) {
	consistent := func(t *testing.T, c Composition) {
		t.Helper()
		lin := c.Linearizable()
		if (c.Err() == nil) != lin {
			t.Fatalf("Err()=%v but Linearizable()=%v: %+v", c.Err(), lin, c)
		}
		if want := c.Checked() && len(c.Failing()) == 0; lin != want {
			t.Fatalf("Linearizable()=%v but Checked()=%v, Failing()=%v: %+v",
				lin, c.Checked(), c.Failing(), c)
		}
	}

	// Zero components: vacuously checked and linearizable, no failures.
	empty := Compose()
	consistent(t, empty)
	if !empty.Linearizable() || len(empty.Failing()) != 0 {
		t.Fatalf("empty composition: %+v", empty)
	}

	// All components vacuous (never checked): not checked, not
	// linearizable, yet nothing Failing — unchecked is weaker than failed.
	vacuous := Compose(
		Component{Name: "shard-0"},
		Component{Name: "shard-1"},
	)
	consistent(t, vacuous)
	if vacuous.Checked() || vacuous.Linearizable() {
		t.Fatalf("all-vacuous composition claims a verdict: %+v", vacuous)
	}
	if len(vacuous.Failing()) != 0 {
		t.Fatalf("unchecked components listed as failing: %v", vacuous.Failing())
	}

	// A single checked-and-failing component among vacuous ones: the
	// failure names exactly that component and wins over incompleteness
	// in Err.
	mixed := Compose(
		Component{Name: "shard-0"},
		Component{Name: "shard-1", Checked: true, Linearizable: false},
		Component{Name: "shard-2"},
	)
	consistent(t, mixed)
	if f := mixed.Failing(); len(f) != 1 || f[0] != "shard-1" {
		t.Fatalf("Failing() = %v, want [shard-1]", f)
	}
	if err := mixed.Err(); err == nil || !strings.Contains(err.Error(), "shard-1") {
		t.Fatalf("Err() = %v, want the failing component named", err)
	}

	// Checked-and-passing among vacuous: incompleteness, not failure.
	partial := Compose(
		Component{Name: "shard-0", Checked: true, Linearizable: true},
		Component{Name: "shard-1"},
	)
	consistent(t, partial)
	if err := partial.Err(); err == nil || !strings.Contains(err.Error(), "shard-1") {
		t.Fatalf("Err() = %v, want the unchecked component named", err)
	}
}

func TestComposeStitchedFailsAlone(t *testing.T) {
	// A migrated key's verdict set: per-shard components spanning the whole
	// run, one component per ownership epoch of the moved key, and the
	// stitched cross-migration component.
	c := Compose(
		Component{Name: "shard-0", Checked: true, Linearizable: true},
		Component{Name: "shard-1", Checked: true, Linearizable: true},
		Component{Name: "key=a/epoch=0", Checked: true, Linearizable: true},
		Component{Name: "key=a/epoch=1", Checked: true, Linearizable: true},
		Component{Name: "key=a/stitched", Checked: true},
	)
	// The epoch-split pieces all pass; only the stitched whole-key view
	// fails — exactly the handoff-violation shape — and the composition
	// surfaces it.
	if c.Linearizable() {
		t.Fatal("stitched failure lost in composition")
	}
	if f := c.Failing(); len(f) != 1 || f[0] != "key=a/stitched" {
		t.Fatalf("Failing() = %v", f)
	}
}
