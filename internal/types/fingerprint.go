package types

import (
	"strconv"

	"timebounds/internal/spec"
)

// Container fingerprints (spec.Fingerprinter). A dict or set state's
// fingerprint is the wrapping sum of one hash per entry, so an operation
// that adds, removes or replaces one entry updates it in O(1). An entry
// hash is FNV-1a over the entry's canonical bytes — the bytes EncodeState
// renders for it — finished with splitmix64 so that sums of similar
// entries still spread. The constants are fixed, so a fingerprint is the
// same in every process and every run.

// hashBytes is FNV-1a over b, finished with splitmix64.
//
//tb:hotpath
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// entryHash hashes one dict entry: its quoted key, '=', and its canonical
// value.
//
//tb:hotpath
func entryHash(key string, v spec.Value) uint64 {
	var buf [64]byte
	b := strconv.AppendQuote(buf[:0], key)
	b = append(b, '=')
	return hashBytes(spec.AppendCanonicalValue(b, v))
}

// elemHash hashes one set element: its canonical rendering.
//
//tb:hotpath
func elemHash(v spec.Value) uint64 {
	var buf [32]byte
	return hashBytes(spec.AppendCanonicalValue(buf[:0], v))
}
