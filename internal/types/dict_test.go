package types_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// fmtDictEncoding is the Dict encoding as first written — one fmt.Sprintf
// per entry, sort.Strings, strings.Join — kept as the oracle the
// single-buffer EncodeState must match byte for byte.
func fmtDictEncoding(entries map[string]spec.Value) string {
	parts := make([]string, 0, len(entries))
	for k, v := range entries {
		parts = append(parts, fmt.Sprintf("%s=%s", spec.CanonicalValue(k), spec.CanonicalValue(v)))
	}
	sort.Strings(parts)
	return "dict:{" + strings.Join(parts, ",") + "}"
}

// TestDictEncodingMatchesFmt draws dictionaries whose keys are built from
// the characters quoting has to escape or reorder ('=', ',', '"', '\\',
// control and non-ASCII runes, and the empty key) and whose values mix
// ints with strings that spell the same digits.
func TestDictEncodingMatchesFmt(t *testing.T) {
	atoms := []string{"", "a", "b", "=", ",", `"`, `\`, "é", "世", "\n", "\x00", "1", "key-0", " "}
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(atoms[rng.Intn(len(atoms))])
		}
		return b.String()
	}
	dict := types.NewDict()
	for iter := 0; iter < 2000; iter++ {
		entries := make(map[string]spec.Value)
		s := dict.InitialState()
		for n := rng.Intn(12); n > 0; n-- {
			k := word()
			var v spec.Value
			switch rng.Intn(4) {
			case 0:
				v = rng.Intn(21) - 10
			case 1:
				v = fmt.Sprint(rng.Intn(21) - 10)
			case 2:
				v = word()
			default:
				v = int64(rng.Intn(5))
			}
			entries[k] = v
			s, _ = dict.Apply(s, types.OpPut, types.KV{Key: k, Value: v})
		}
		if got, want := dict.EncodeState(s), fmtDictEncoding(entries); got != want {
			t.Fatalf("EncodeState = %q\n          want %q", got, want)
		}
	}
}
