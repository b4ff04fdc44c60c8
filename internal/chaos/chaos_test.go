package chaos

import (
	"sync"
	"testing"
)

func TestDeterministicRandomness(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Intn(1000), b.Intn(1000); x != y {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, x, y)
		}
	}
	data1 := make([]byte, 64)
	data2 := make([]byte, 64)
	c, d := New(7), New(7)
	for i := 0; i < 10; i++ {
		c.FlipBit(data1)
		d.FlipBit(data2)
	}
	for i := range data1 {
		if data1[i] != data2[i] {
			t.Fatal("FlipBit not deterministic across same-seed harnesses")
		}
	}
}

func TestFlipBitActuallyFlips(t *testing.T) {
	c := New(1)
	data := make([]byte, 16)
	idx := c.FlipBit(data)
	if idx < 0 || idx >= len(data) {
		t.Fatalf("index %d out of range", idx)
	}
	if data[idx] == 0 {
		t.Fatal("no bit flipped")
	}
	if c.FlipBit(nil) != -1 {
		t.Fatal("empty data should return -1")
	}
}

func TestOnNthFiresExactlyOnce(t *testing.T) {
	fired := 0
	trig := OnNth(3, func() { fired++ })
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); trig() }()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly 1", fired)
	}
}

func TestNodeKillRestart(t *testing.T) {
	c := New(0)
	stops, starts := 0, 0
	n := c.Register("dn0", func() error { stops++; return nil }, func() error { starts++; return nil })
	if !n.Alive() {
		t.Fatal("node should start alive")
	}
	if err := n.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := n.Kill(); err != nil { // idempotent
		t.Fatal(err)
	}
	if n.Alive() || stops != 1 {
		t.Fatalf("after kill: alive=%v stops=%d", n.Alive(), stops)
	}
	if err := n.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := n.Restart(); err != nil { // idempotent
		t.Fatal(err)
	}
	if !n.Alive() || starts != 1 {
		t.Fatalf("after restart: alive=%v starts=%d", n.Alive(), starts)
	}
	if c.Node("dn0") != n {
		t.Fatal("registry lookup failed")
	}
	if c.Node("nope") != nil {
		t.Fatal("unknown node should be nil")
	}
}
