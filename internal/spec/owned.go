package spec

// Owned is one host's private copy of an object state — a replica's local
// copy in Algorithm 1, the centralized coordinator's object, a TOB
// process's copy. Only its holder applies operations to it, so for a
// Mutator data type Apply updates it in place: the first operation after
// NewOwned, Set or Share clones the state, and later ones mutate that
// clone. Data types without Mutator go through their pure Apply.
type Owned struct {
	dt  DataType
	mut Mutator // nil when dt has none
	s   State
	// owned is set once s is a clone nobody else holds.
	owned bool
}

// NewOwned returns a copy of dt's initial state.
func NewOwned(dt DataType) Owned {
	mut, _ := Optional[Mutator](dt)
	return Owned{dt: dt, mut: mut, s: dt.InitialState()}
}

// State returns the current state for reading. The caller must not keep
// it past the next Apply, which may change it in place; use Share to hand
// it to another holder.
func (o *Owned) State() State { return o.s }

// Set replaces the copy with s, which others may still hold (a state
// transfer); the next Apply clones it first.
func (o *Owned) Set(s State) { o.s, o.owned = s, false }

// Share returns the current state for another holder to keep. The copy
// stops being exclusive, so the next Apply clones it first.
func (o *Owned) Share() State {
	o.owned = false
	return o.s
}

// Apply applies one operation to the copy and returns its return value.
//
//tb:hotpath
func (o *Owned) Apply(kind OpKind, arg Value) Value {
	if o.mut == nil {
		next, ret := o.dt.Apply(o.s, kind, arg)
		o.s = next
		return ret
	}
	if !o.owned {
		o.s = o.mut.Clone(o.s)
		o.owned = true
	}
	next, ret := o.mut.Mutate(o.s, kind, arg)
	o.s = next
	return ret
}
