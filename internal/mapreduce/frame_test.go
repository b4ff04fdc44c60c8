package mapreduce

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
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
		want += FrameBytes(p)
	}
	if int64(len(buf)) != want {
		t.Fatalf("framed %d bytes, FrameBytes sums to %d", len(buf), want)
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

func TestFrameWriterReaderRoundTrip(t *testing.T) {
	f := func(keys []string, vals [][]byte) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		var ps []Pair
		for i := 0; i < n; i++ {
			ps = append(ps, Pair{Key: keys[i], Value: vals[i]})
		}
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		for _, p := range ps {
			if err := fw.WritePair(p); err != nil {
				return false
			}
		}
		if err := fw.Flush(); err != nil {
			return false
		}
		fr := NewFrameReader(&buf)
		var got []Pair
		for {
			p, ok, err := fr.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			got = append(got, p)
		}
		if len(got) != len(ps) {
			return false
		}
		for i := range ps {
			if got[i].Key != ps[i].Key || !bytes.Equal(got[i].Value, ps[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The writer, the append codec, and the decoder must agree byte for byte:
// one frame layout, three entry points.
func TestFrameCodecsAgree(t *testing.T) {
	ps := []Pair{{Key: "k1", Value: []byte("v1")}, {Key: "k2", Value: bytes.Repeat([]byte("x"), 100)}}
	var appended []byte
	for _, p := range ps {
		appended = AppendFrame(appended, p)
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for _, p := range ps {
		if err := fw.WritePair(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(appended, buf.Bytes()) {
		t.Fatal("AppendFrame and FrameWriter produce different bytes")
	}
	if fw.Bytes() != int64(len(appended)) {
		t.Fatalf("FrameWriter.Bytes() = %d, want %d", fw.Bytes(), len(appended))
	}
	decoded, err := DecodeFrames(nil, appended)
	if err != nil {
		t.Fatal(err)
	}
	want := []Pair{{Key: "k1", Value: []byte("v1")}, {Key: "k2", Value: bytes.Repeat([]byte("x"), 100)}}
	if !reflect.DeepEqual(decoded, want) {
		t.Fatalf("decoded %+v", decoded)
	}
}

// A length prefix the stream does not back must cost an error, not the
// announced allocation: run files come off disk and shuffle streams from
// other machines.
func TestFrameReaderBoundsAllocation(t *testing.T) {
	for _, data := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 1},
		{1, 0, 0, 0, 'k', 0xFF, 0xFF, 0xFF, 0xFF, 1},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := NewFrameReader(bytes.NewReader(data)).Next()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("no error reading %x", data)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*frameAllocStep {
			t.Fatalf("rejecting %x allocated %d bytes", data, grew)
		}
	}
}

// FuzzFrameRoundTrip feeds arbitrary bytes — what a corrupt run file, a
// hostile shuffle peer or a damaged DFS part looks like — to both decoders.
// Each must return an error or pairs and never panic; the pairs decoded
// before the error (or all of them) must re-encode with AppendFrame to
// exactly the prefix of the input they were read from; and the two decoders
// must agree. (TestFrameReaderBoundsAllocation covers what a bad length may
// cost in memory.)
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
		encode := func(ps []Pair) []byte {
			var out []byte
			for _, p := range ps {
				out = AppendFrame(out, p)
			}
			return out
		}
		decoded, decErr := DecodeFrames(nil, append([]byte(nil), data...))
		if enc := encode(decoded); !bytes.HasPrefix(data, enc) || (decErr == nil && len(enc) != len(data)) {
			t.Fatalf("DecodeFrames(%x) = %v, %v: re-encodes to %x", data, decoded, decErr, enc)
		}
		var streamed []Pair
		var readErr error
		for fr := NewFrameReader(bytes.NewReader(data)); ; {
			p, ok, err := fr.Next()
			if err != nil || !ok {
				readErr = err
				break
			}
			streamed = append(streamed, p)
		}
		if (decErr == nil) != (readErr == nil) {
			t.Fatalf("on %x DecodeFrames says %v, FrameReader says %v", data, decErr, readErr)
		}
		if !bytes.Equal(encode(streamed), encode(decoded)) {
			t.Fatalf("on %x DecodeFrames read %v, FrameReader read %v", data, decoded, streamed)
		}
	})
}
