package lsh

import (
	"bytes"
	"hash/maphash"
	"slices"
)

// KeyIDs interns LSH keys to dense IDs 0, 1, 2, … in first-seen order, so an
// ID depends only on the order keys are interned in, never on the hash seed.
// The keys' bytes lie back to back in one arena, found through an
// open-addressed table kept at most three quarters full: interning a key
// already held copies and allocates nothing. The zero value is empty and
// ready; Lookup, Key and Len are safe for concurrent use once no one interns.
type KeyIDs struct {
	arena []byte  // key id is arena[ends[id-1]:ends[id]]
	ends  []int32 // one per key
	table []int32 // an ID + 1 per used slot, 0 when free
	seed  maphash.Seed
}

// Intern returns key's ID, handing it the next one if key is new.
func (k *KeyIDs) Intern(key []byte) int32 {
	if 4*len(k.ends) >= 3*len(k.table) {
		k.rehash(max(2*len(k.table), 64))
	}
	s := k.slot(key)
	if v := k.table[s]; v != 0 {
		return v - 1
	}
	if len(k.ends) == cap(k.ends) {
		// Double ends, and the arena to as many more keys of the mean length
		// so far: append's own steps on a large slice are about a quarter of
		// its length, and the copies they leave behind would cost a large
		// table several times what it keeps.
		more := max(len(k.ends), 64)
		k.ends = slices.Grow(k.ends, more)
		k.arena = slices.Grow(k.arena, more*(len(k.arena)/max(len(k.ends), 1)+1))
	}
	id := int32(len(k.ends))
	k.arena = append(k.arena, key...)
	k.ends = append(k.ends, int32(len(k.arena)))
	k.table[s] = id + 1
	return id
}

// Lookup returns key's ID, if it was interned.
func (k *KeyIDs) Lookup(key []byte) (int32, bool) {
	if len(k.ends) == 0 {
		return 0, false
	}
	v := k.table[k.slot(key)]
	return v - 1, v != 0
}

// Key returns the bytes of key id, which the caller must not modify.
func (k *KeyIDs) Key(id int32) []byte {
	lo := int32(0)
	if id > 0 {
		lo = k.ends[id-1]
	}
	return k.arena[lo:k.ends[id]]
}

// Len returns the number of keys interned.
func (k *KeyIDs) Len() int { return len(k.ends) }

// Reset empties the table, keeping its storage for the next keys.
func (k *KeyIDs) Reset() {
	if len(k.ends) != 0 {
		k.arena, k.ends = k.arena[:0], k.ends[:0]
		clear(k.table)
	}
}

// slot returns the table slot that holds key, or the free one it would take.
func (k *KeyIDs) slot(key []byte) int {
	mask := len(k.table) - 1
	s := int(maphash.Bytes(k.seed, key)) & mask
	for k.table[s] != 0 && !bytes.Equal(k.Key(k.table[s]-1), key) {
		s = (s + 1) & mask
	}
	return s
}

// rehash moves the keys to a table of size slots, a power of two.
func (k *KeyIDs) rehash(size int) {
	if k.table == nil {
		k.seed = maphash.MakeSeed()
	}
	k.table = make([]int32, size)
	for id := range k.ends {
		k.table[k.slot(k.Key(int32(id)))] = int32(id) + 1
	}
}
