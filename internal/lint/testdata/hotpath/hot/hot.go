// Package hot seeds hotpath violations for the analyzer goldens.
package hot

import "fmt"

type stats struct{ n int }

// Observe formats inside a marked fold.
//
//tb:hotpath
func (s *stats) Observe(v int) {
	s.n += v
	fmt.Println(v) // want "call to fmt.Println" // want "value boxed into"
}

// Box builds []any from ints, boxing each element.
//
//tb:hotpath
func Box(vs []int) []any {
	out := make([]any, 0, len(vs))
	for _, v := range vs {
		out = append(out, v) // want "value boxed into"
	}
	return out
}

// Widen boxes through its return value.
//
//tb:hotpath
func Widen(v int) any {
	return v // want "value boxed into"
}

// slot holds any value.
type slot struct {
	n int
	v any
}

// Pack boxes into a struct literal's interface field, keyed and not.
//
//tb:hotpath
func Pack(v int) (slot, slot) {
	return slot{n: v, v: v}, slot{v, v} // want "value boxed into" // want "value boxed into"
}

// Capture lets closures over the loop variable escape.
//
//tb:hotpath
func Capture(vs []int) []func() int {
	var fs []func() int
	for _, v := range vs {
		fs = append(fs, func() int { return v }) // want "captures loop variable"
	}
	return fs
}

// PointerPass converts a pointer to an interface: pointer-shaped, free.
//
//tb:hotpath
func PointerPass(s *stats) any {
	return s
}

// Marker boxes a zero-size value: no allocation, no finding.
//
//tb:hotpath
func Marker() any { return struct{}{} }

// Immediate invokes its closure in place; nothing escapes.
//
//tb:hotpath
func Immediate(vs []int) int {
	total := 0
	for _, v := range vs {
		total += func() int { return v }()
	}
	return total
}

// Cold is unmarked and free to do all of the above.
func Cold(v int) any {
	fmt.Println(v)
	return v
}
