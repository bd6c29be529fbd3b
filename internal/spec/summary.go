package spec

// Classification consolidates every Chapter II property of one operation
// kind over a search domain, as re-derived by the brute-force classifiers.
// It backs tb classify and the cross-checking tests.
type Classification struct {
	Kind  OpKind
	Class OpClass
	// Mutator / Accessor per Definitions D.1–D.2.
	Mutator, Accessor bool
	// Overwriter is true for mutators that overwrite the whole state
	// (negation of Definition D.5 over the domain).
	Overwriter bool
	// INSC is immediate non-self-commutativity (Definition B.2).
	INSC bool
	// StronglyINSC is Definition B.3.
	StronglyINSC bool
	// ENSC is eventual non-self-commutativity (Definition C.3).
	ENSC bool
	// LastPermuting3 is a k=3 witness for Definition C.5.
	LastPermuting3 bool
}

// Classify derives the full Classification of one kind.
func Classify(dt DataType, kind OpKind, dom Domain) Classification {
	c := Classification{
		Kind:     kind,
		Class:    dt.Class(kind),
		Mutator:  IsMutator(dt, kind, dom),
		Accessor: IsAccessor(dt, kind, dom),
	}
	c.Overwriter = c.Mutator && !IsNonOverwriter(dt, kind, dom)
	_, c.INSC = FindImmediatelyNonCommuting(dt, kind, kind, dom)
	_, c.StronglyINSC = FindStronglyImmediatelyNonSelfCommuting(dt, kind, dom)
	_, c.ENSC = FindEventuallyNonSelfCommuting(dt, kind, dom)
	_, c.LastPermuting3 = FindNonSelfLastPermuting(dt, kind, 3, dom)
	return c
}

// ClassifyAll derives classifications for every kind of a data type.
func ClassifyAll(dt DataType, dom Domain) []Classification {
	kinds := dt.Kinds()
	out := make([]Classification, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, Classify(dt, k, dom))
	}
	return out
}

// ConsistentWithClass reports whether the derived mutator/accessor facts
// agree with the declared Chapter V class, and a reason when they do not.
func (c Classification) ConsistentWithClass() (bool, string) {
	switch c.Class {
	case ClassPureMutator:
		if !c.Mutator || c.Accessor {
			return false, "declared MOP but not a pure mutator over the domain"
		}
	case ClassPureAccessor:
		if c.Mutator || !c.Accessor {
			return false, "declared AOP but not a pure accessor over the domain"
		}
	case ClassOther:
		if !c.Mutator {
			return false, "declared OOP but not even a mutator over the domain"
		}
	}
	return true, ""
}
