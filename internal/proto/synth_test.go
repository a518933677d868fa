package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// fillSynthRef is the byte-at-a-time generator FillSynth replaced, kept
// verbatim as the reference for the synthetic-content contract: resume,
// verification, datagen output and every landed tree depend on these
// exact bytes.
func fillSynthRef(name string, off int64, p []byte) {
	seed := int64(nameHash(name))
	for i := range p {
		pos := off + int64(i)
		lane := pos >> 3
		x := uint64(seed) ^ uint64(lane)*0x9E3779B97F4A7C15
		x ^= x >> 33
		x *= 0xFF51AFD7ED558CCD
		x ^= x >> 33
		var lanes [8]byte
		binary.LittleEndian.PutUint64(lanes[:], x)
		p[i] = lanes[pos&7]
	}
}

func checkSynthRange(t *testing.T, name string, off int64, n int) {
	t.Helper()
	got := make([]byte, n)
	want := make([]byte, n)
	FillSynth(name, off, got)
	fillSynthRef(name, off, want)
	if !bytes.Equal(got, want) {
		t.Fatalf("FillSynth(%q, %d, len %d) differs from the reference", name, off, n)
	}
}

func TestFillSynthMatchesReference(t *testing.T) {
	lengths := []int{DefaultBlockSize, 1<<20 + 4099}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, base := range []int64{0, 1 << 40, 3<<41 + 64} {
		for k := int64(0); k < 8; k++ {
			for _, n := range lengths {
				checkSynthRange(t, "golden.dat", base+k, n)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		off := rng.Int63n(1 << 42)
		n := rng.Intn(3000)
		checkSynthRange(t, fmt.Sprintf("f%d", i%7), off, n)
	}
}

// TestFillSynthPinned pins the generator's output independently of
// fillSynthRef, so a change that edits both still fails.
func TestFillSynthPinned(t *testing.T) {
	for _, c := range []struct {
		off  int64
		want string
	}{
		{0, "cdc37fb770af29447970580bf2c9c864c048e3c3a4d22064f06535372045d75b"},
		{1<<41 + 3, "9095c707351b1ba40477c329d5c37873a863b11bed95d81e09ab75045bb29b93"},
	} {
		got := make([]byte, 32)
		FillSynth("golden.dat", c.off, got)
		if h := hex.EncodeToString(got); h != c.want {
			t.Errorf("FillSynth(golden.dat, %d) = %s, want %s", c.off, h, c.want)
		}
	}
}

func TestVerifySinkCatchesFlippedByte(t *testing.T) {
	// A misaligned range: 5 head-lane bytes, a body of whole lanes
	// longer than synthMatches' scratch, and a 3-byte tail lane.
	const off = 8*1000 + 3
	const n = 5 + 8*300 + 3
	for _, at := range []int{0, 4, 5, 170, 1500, n - 4, n - 3, n - 1} {
		p := make([]byte, n)
		FillSynth("flip.dat", off, p)
		p[at] ^= 0x20
		vs := NewVerifySink()
		if _, err := vs.WriteAt("flip.dat", p, off); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("flip.dat@%d+%d", off, n)
		if bad := vs.Corrupt(); len(bad) != 1 || bad[0] != want {
			t.Errorf("byte %d flipped: Corrupt() = %v, want [%s]", at, bad, want)
		}
	}
}

func TestVerifySinkWriteAtDoesNotAllocate(t *testing.T) {
	p := make([]byte, DefaultBlockSize)
	FillSynth("clean.dat", 12345, p)
	vs := NewVerifySink()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := vs.WriteAt("clean.dat", p, 12345); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("VerifySink.WriteAt of a clean block: %v allocs, want 0", allocs)
	}
	if bad := vs.Corrupt(); len(bad) != 0 {
		t.Errorf("clean block reported corrupt: %v", bad)
	}
}
