package cover

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddSortsAndDedupes(t *testing.T) {
	c := New(2)
	idx := c.Add([]uint32{5, 1, 3, 1, 5})
	if idx != 0 {
		t.Fatalf("index = %d", idx)
	}
	got := c.Community(0)
	want := []uint32{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("community: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("community: %v", got)
		}
	}
	if c.Add(nil) != -1 {
		t.Fatal("empty community accepted")
	}
}

func TestSizesAndCovered(t *testing.T) {
	c := FromCommunities([][]uint32{{1, 2, 3}, {3, 4}})
	sizes := c.Sizes()
	if sizes[0] != 3 || sizes[1] != 2 {
		t.Fatalf("sizes: %v", sizes)
	}
	if c.CoveredVertices() != 4 {
		t.Fatalf("covered = %d", c.CoveredVertices())
	}
	over, maxM := c.OverlappingVertices()
	if over != 1 || maxM != 2 {
		t.Fatalf("overlap: %d %d", over, maxM)
	}
}

func TestEntropyMatchesFormula(t *testing.T) {
	c := FromCommunities([][]uint32{{1, 2}, {3, 4, 5, 6}})
	n := 8
	want := -(0.25*math.Log(0.25) + 0.5*math.Log(0.5))
	if got := c.Entropy(n); math.Abs(got-want) > 1e-12 {
		t.Fatalf("entropy %v want %v", got, want)
	}
	if c.Entropy(0) != 0 {
		t.Fatal("entropy with zero vertices")
	}
}

func TestEqualIgnoresOrder(t *testing.T) {
	a := FromCommunities([][]uint32{{1, 2}, {3, 4}})
	b := FromCommunities([][]uint32{{4, 3}, {2, 1}})
	if !a.Equal(b) {
		t.Fatal("order-insensitive equality failed")
	}
	c := FromCommunities([][]uint32{{1, 2}, {3, 5}})
	if a.Equal(c) {
		t.Fatal("different covers equal")
	}
	d := FromCommunities([][]uint32{{1, 2}})
	if a.Equal(d) {
		t.Fatal("different lengths equal")
	}
}

func TestRemoveSubsets(t *testing.T) {
	c := FromCommunities([][]uint32{
		{1, 2, 3, 4},
		{2, 3},       // subset
		{1, 2, 3, 4}, // duplicate
		{4, 5},       // overlapping but not subset
	})
	r := c.RemoveSubsets()
	if r.Len() != 2 {
		t.Fatalf("kept %d communities: %v", r.Len(), r.Canonical())
	}
}

func TestReadWrite(t *testing.T) {
	in := "# truth\n3 1 2\n\n7 8\n"
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("communities = %d", c.Len())
	}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(back) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("1 x 3\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCanonicalSorted(t *testing.T) {
	check := func(raw [][]uint32) bool {
		c := FromCommunities(raw)
		canon := c.Canonical()
		for i := 1; i < len(canon); i++ {
			if lessSlice(canon[i], canon[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
