package mapreduce

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

func TestAppendDecodeFramesRoundTrip(t *testing.T) {
	ps := []Pair{
		{Key: "a", Value: []byte("1")},
		{Key: "", Value: []byte("empty key")},
		{Key: "b", Value: nil},
		{Key: "long-key-with-some-length", Value: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	var buf []byte
	var want int64
	for _, p := range ps {
		buf = AppendFrame(buf, p)
		want += 8 + pairBytes(p) // two uint32 length prefixes
	}
	if int64(len(buf)) != want {
		t.Fatalf("framed %d bytes, want %d", len(buf), want)
	}
	got, err := DecodeFrames(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("decoded %d pairs, want %d", len(got), len(ps))
	}
	for i := range ps {
		if got[i].Key != ps[i].Key || !bytes.Equal(got[i].Value, ps[i].Value) {
			t.Fatalf("pair %d = %+v, want %+v", i, got[i], ps[i])
		}
	}
}

func TestDecodeFramesTruncated(t *testing.T) {
	buf := AppendFrame(nil, Pair{Key: "abc", Value: []byte("012345")})
	for _, cut := range []int{1, 3, 5, 8, len(buf) - 1} {
		if _, err := DecodeFrames(nil, buf[:cut]); err == nil {
			t.Fatalf("no error decoding %d of %d bytes", cut, len(buf))
		}
	}
}

// One frame layout for every producer and consumer: AppendFrame writes the
// documented bytes and DecodeFrames reads them back.
func TestFrameCodecsAgree(t *testing.T) {
	ps := []Pair{{Key: "k1", Value: []byte("v1")}, {Key: "k2", Value: bytes.Repeat([]byte("x"), 100)}}
	var appended []byte
	for _, p := range ps {
		appended = AppendFrame(appended, p)
	}
	want := append([]byte{2, 0, 0, 0, 'k', '1', 2, 0, 0, 0, 'v', '1', 2, 0, 0, 0, 'k', '2', 100, 0, 0, 0},
		bytes.Repeat([]byte("x"), 100)...)
	if !bytes.Equal(appended, want) {
		t.Fatalf("AppendFrame wrote %x, want %x", appended, want)
	}
	decoded, err := DecodeFrames(nil, appended)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, ps) {
		t.Fatalf("decoded %+v", decoded)
	}
}

// A length prefix the stream does not back must cost an error, not the
// announced allocation: shuffle streams come from other machines.
func TestReadClaimedBoundsAllocation(t *testing.T) {
	for _, n := range []int{frameAllocStep + 1, 1<<32 - 1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadClaimed(bytes.NewReader([]byte{1}), nil, n)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("no error reading %d claimed bytes from a 1-byte stream", n)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*frameAllocStep {
			t.Fatalf("rejecting a %d-byte claim allocated %d bytes", n, grew)
		}
	}
	got, err := ReadClaimed(bytes.NewReader([]byte("abcdef")), make([]byte, 0, 8), 4)
	if err != nil || string(got) != "abcd" {
		t.Fatalf("ReadClaimed(4) = %q, %v", got, err)
	}
}

// FuzzFrameRoundTrip feeds arbitrary bytes — what a hostile shuffle peer or
// a damaged model section looks like — to DecodeFrames. It must return an error
// or pairs and never panic, and the pairs decoded before the error (or all
// of them) must re-encode with AppendFrame to exactly the prefix of the
// input they were read from.
func FuzzFrameRoundTrip(f *testing.F) {
	one := AppendFrame(nil, Pair{Key: "key", Value: []byte("value")})
	f.Add([]byte{})
	f.Add(one)
	f.Add(AppendFrame(nil, Pair{Value: []byte("v")}))
	f.Add(AppendFrame(nil, Pair{Key: "k"}))
	f.Add(append(append([]byte{}, one...), one...))
	for _, cut := range []int{2, 4, 6, 7, 9, 11, len(one) - 1} { // inside every field
		f.Add(one[:cut])
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{1, 0, 0, 0, 'k', 0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, decErr := DecodeFrames(nil, append([]byte(nil), data...))
		var enc []byte
		for _, p := range decoded {
			enc = AppendFrame(enc, p)
		}
		if !bytes.HasPrefix(data, enc) || (decErr == nil && len(enc) != len(data)) {
			t.Fatalf("DecodeFrames(%x) = %v, %v: re-encodes to %x", data, decoded, decErr, enc)
		}
	})
}
