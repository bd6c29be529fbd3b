package check

import (
	"fmt"
	"strings"
)

// Linearizability is local (Herlihy & Wing 1990, Theorem 1): a history of
// a system of independently specified objects is linearizable iff each
// per-object subhistory is linearizable. Composition is that theorem as a
// verdict: it folds the per-component checker verdicts of a partitioned
// system — the engine's per-shard sub-clusters, plus each migrated key's
// per-epoch pieces and stitched history — into the verdict for the whole
// composed object, without ever checking the (exponentially larger)
// combined history.

// Component is one independently checked object of a composed system: a
// shard of a sharded store, any disjoint sub-object, or, for a store
// whose partition changes mid-run, one epoch's piece of a migrated key's
// history or that key's stitched whole-run history. The name says which
// (the engine suffixes "/key=k/epoch=e" and "/key=k/stitched").
type Component struct {
	// Name identifies the component (e.g. the shard's scenario name).
	Name string
	// Checked reports whether the linearizability checker ran on the
	// component's history.
	Checked bool
	// Linearizable is the component's checker verdict (meaningful only
	// when Checked).
	Linearizable bool
}

// Composition is the locality verdict over a set of components.
type Composition struct {
	// Components are the per-object verdicts, in composition order.
	Components []Component
}

// Compose builds the composed verdict for a system partitioned into the
// given independently checked components.
func Compose(components ...Component) Composition {
	return Composition{Components: append([]Component(nil), components...)}
}

// Checked reports whether every component was checked — the composed
// verdict is only as strong as its weakest member, so an unchecked
// component leaves the composition unchecked. An empty composition is
// vacuously checked.
func (c Composition) Checked() bool {
	for _, comp := range c.Components {
		if !comp.Checked {
			return false
		}
	}
	return true
}

// Linearizable reports the composed verdict: every component checked and
// linearizable. By locality this is exactly the verdict a (intractable)
// direct check of the combined history would return.
func (c Composition) Linearizable() bool {
	if !c.Checked() {
		return false
	}
	for _, comp := range c.Components {
		if !comp.Linearizable {
			return false
		}
	}
	return true
}

// Failing returns the names of components that were checked and found
// non-linearizable — the objects that break the composition.
func (c Composition) Failing() []string {
	var out []string
	for _, comp := range c.Components {
		if comp.Checked && !comp.Linearizable {
			out = append(out, comp.Name)
		}
	}
	return out
}

// Err returns nil when the composition is checked and linearizable, and
// otherwise an error naming the first failing (or unchecked) component.
func (c Composition) Err() error {
	if failing := c.Failing(); len(failing) > 0 {
		return fmt.Errorf("check: composed object not linearizable: component %q failed (%s)",
			failing[0], strings.Join(failing, ", "))
	}
	for _, comp := range c.Components {
		if !comp.Checked {
			return fmt.Errorf("check: composed verdict incomplete: component %q not checked", comp.Name)
		}
	}
	return nil
}
