package lsh

import (
	"encoding/binary"
	"testing"
)

// TestKeyIDs: IDs are dense and handed out in first-seen order over a
// stream with repeats, they survive the table's rehashes, Lookup finds
// exactly the interned keys (an empty table none), Key gives back the
// interned bytes, and after Reset the same stream gets the same IDs. The
// empty key and keys that are prefixes of one another stay distinct.
func TestKeyIDs(t *testing.T) {
	var k KeyIDs
	if _, ok := k.Lookup([]byte("a")); ok || k.Len() != 0 {
		t.Fatalf("empty table: Lookup found a key, Len %d", k.Len())
	}
	k.Reset()
	if _, ok := k.Lookup(nil); ok {
		t.Fatal("empty table after Reset: Lookup found the empty key")
	}

	// The stream: the empty key, then a chain of prefixes, then ≥ 10 000
	// distinct varint keys — enough for several rehashes — each seen twice,
	// the repeat 7 keys later.
	stream := [][]byte{{}, {1}, {1, 2}, {1, 2, 3}, {1}, {}}
	distinct := append([][]byte(nil), stream[:4]...)
	for i := range 12_000 {
		key := binary.AppendUvarint([]byte{9}, uint64(i))
		distinct = append(distinct, key)
		stream = append(stream, key)
		if i >= 7 {
			stream = append(stream, distinct[len(distinct)-8])
		}
	}

	for round := range 2 {
		want := make(map[string]int32) // the reference: first-seen order
		for x, key := range stream {
			id, seen := want[string(key)]
			if !seen {
				id = int32(len(want))
				want[string(key)] = id
			}
			if got := k.Intern(key); got != id {
				t.Fatalf("round %d, stream key %d (%x): ID %d, want %d", round, x, key, got, id)
			}
		}
		if k.Len() != len(distinct) {
			t.Fatalf("round %d: Len %d, want %d", round, k.Len(), len(distinct))
		}
		for id, key := range distinct {
			if got, ok := k.Lookup(key); !ok || got != int32(id) {
				t.Fatalf("round %d: Lookup(%x) = %d, %v, want %d", round, key, got, ok, id)
			}
			if got := k.Key(int32(id)); string(got) != string(key) {
				t.Fatalf("round %d: Key(%d) = %x, want %x", round, id, got, key)
			}
		}
		for _, absent := range [][]byte{{1, 2, 3, 4}, {2}, {9}, binary.AppendUvarint([]byte{9}, 12_000)} {
			if id, ok := k.Lookup(absent); ok {
				t.Fatalf("round %d: Lookup(%x) found ID %d of a key never interned", round, absent, id)
			}
		}
		k.Reset()
		if k.Len() != 0 {
			t.Fatalf("round %d: Len %d after Reset", round, k.Len())
		}
		if _, ok := k.Lookup(distinct[5]); ok {
			t.Fatalf("round %d: Lookup found a key after Reset", round)
		}
	}
}
