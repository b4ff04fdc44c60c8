package lsh

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// A partition key is bytes: the layout index as a uvarint (one byte for any
// M up to 128) followed by the layout's π slots as zig-zag varints, the
// encoding/binary forms. Varints are self-delimiting, so keys of different
// layouts or different slots never collide, and a slot near zero — the
// common case — costs one byte. Keys travel as Go strings wherever a
// MapReduce key or a map key is needed; they are not text.

// AppendKey appends the key of the given layout and slots to dst.
func AppendKey(dst []byte, layout int, slots []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(layout))
	for _, s := range slots {
		dst = binary.AppendVarint(dst, s)
	}
	return dst
}

// DecodeKey is the inverse of AppendKey. It rejects anything AppendKey
// cannot have produced — an empty or truncated key, a varint that overflows
// or is padded with a redundant zero byte — so decoding then re-encoding a
// key it accepts always returns the same bytes.
func DecodeKey(key string) (layout int, slots []int64, err error) {
	b := []byte(key)
	u, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) || u > math.MaxInt32 {
		return 0, nil, fmt.Errorf("lsh: key %x: bad layout index", key)
	}
	for b = b[n:]; len(b) > 0; b = b[n:] {
		var s int64
		s, n = binary.Varint(b)
		if n <= 0 || (n > 1 && b[n-1] == 0) {
			return 0, nil, fmt.Errorf("lsh: key %x: bad slot %d", key, len(slots))
		}
		slots = append(slots, s)
	}
	return int(u), slots, nil
}

// KeyString renders a key in the text form "m|s1.s2.s3" (all decimal) for
// logs and JSON, where raw key bytes cannot go. An undecodable key renders
// as its hex bytes after a "?".
func KeyString(key string) string {
	layout, slots, err := DecodeKey(key)
	if err != nil {
		return fmt.Sprintf("?%x", key)
	}
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(layout))
	sep := byte('|')
	for _, s := range slots {
		sb.WriteByte(sep)
		sb.WriteString(strconv.FormatInt(s, 10))
		sep = '.'
	}
	return sb.String()
}

// ParseKey is the inverse of KeyString for a configuration of m layouts of
// pi functions: it returns the key a text form names, or an error when the
// text is not exactly what KeyString prints, names a layout outside [0, m),
// or does not carry pi slots.
func ParseKey(text string, m, pi int) (string, error) {
	head, tail, ok := strings.Cut(text, "|")
	layout, err := strconv.Atoi(head)
	if !ok || err != nil {
		return "", fmt.Errorf("lsh: key %q is not of the form m|s1.s2…", text)
	}
	if layout < 0 || layout >= m {
		return "", fmt.Errorf("lsh: key %q: layout %d outside [0,%d)", text, layout, m)
	}
	parts := strings.Split(tail, ".")
	if len(parts) != pi {
		return "", fmt.Errorf("lsh: key %q: %d slots, want %d", text, len(parts), pi)
	}
	slots := make([]int64, pi)
	for i, part := range parts {
		if slots[i], err = strconv.ParseInt(part, 10, 64); err != nil {
			return "", fmt.Errorf("lsh: key %q: slot %d: %w", text, i, err)
		}
	}
	key := string(AppendKey(nil, layout, slots))
	if KeyString(key) != text {
		// "+1", "01", "-0": one key must have one spelling.
		return "", fmt.Errorf("lsh: key %q is not in canonical form %q", text, KeyString(key))
	}
	return key, nil
}

// KeyBuf holds one point's projections and keys under every layout: the
// reusable scratch Layouts.Hash fills. The zero value is ready; a KeyBuf
// must not be shared between goroutines.
type KeyBuf struct {
	proj []float64 // (a·p + b)/w per function, layout-major
	keys []byte    // the M keys back to back, in layout order
	ends []int     // ends[m] is where layout m's key ends in keys
}

// Key returns the point's key under layout m. The bytes are overwritten by
// the next Hash; a map lookup by string(kb.Key(m)) does not copy them.
func (kb *KeyBuf) Key(m int) []byte {
	lo := 0
	if m > 0 {
		lo = kb.ends[m-1]
	}
	return kb.keys[lo:kb.ends[m]]
}

// Bytes returns the point's M keys back to back in layout order — a
// canonical byte string of its whole key tuple.
func (kb *KeyBuf) Bytes() []byte { return kb.keys }

// EachKey calls emit with every layout's key as a string, in layout order.
// The strings are slices of one copy of Bytes, so they stay valid after the
// next Hash.
func (kb *KeyBuf) EachKey(emit func(key string)) {
	all := string(kb.keys)
	lo := 0
	for _, hi := range kb.ends {
		emit(all[lo:hi])
		lo = hi
	}
}
