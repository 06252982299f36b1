package lcs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func lcsStrings(a, b string) string {
	pairs := Longest(len(a), len(b), func(i, j int) bool { return a[i] == b[j] })
	out := make([]byte, len(pairs))
	for i, p := range pairs {
		out[i] = a[p.AIdx]
	}
	return string(out)
}

func TestLongestKnownCases(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"", "", ""},
		{"abc", "", ""},
		{"", "abc", ""},
		{"abc", "abc", "abc"},
		{"abcbdab", "bdcaba", "bdab"}, // classic CLRS example (length 4)
		{"xyz", "abc", ""},
		{"aggtab", "gxtxayb", "gtab"},
	}
	for _, c := range cases {
		got := lcsStrings(c.a, c.b)
		if len(got) != len(c.want) {
			t.Errorf("lcs(%q,%q) = %q (len %d), want length %d", c.a, c.b, got, len(got), len(c.want))
		}
	}
}

func isSubsequence(sub, s string) bool {
	i := 0
	for j := 0; j < len(s) && i < len(sub); j++ {
		if s[j] == sub[i] {
			i++
		}
	}
	return i == len(sub)
}

func TestLongestIsCommonSubsequenceQuick(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		got := lcsStrings(a, b)
		return isSubsequence(got, a) && isSubsequence(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// bruteLCSLen is an exponential oracle for small inputs.
func bruteLCSLen(a, b string) int {
	if a == "" || b == "" {
		return 0
	}
	if a[0] == b[0] {
		return 1 + bruteLCSLen(a[1:], b[1:])
	}
	x, y := bruteLCSLen(a[1:], b), bruteLCSLen(a, b[1:])
	if x > y {
		return x
	}
	return y
}

func TestLongestOptimalSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randString(rng, 8, "abc")
		b := randString(rng, 8, "abc")
		if got, want := len(lcsStrings(a, b)), bruteLCSLen(a, b); got != want {
			t.Fatalf("lcs(%q,%q) length %d, brute force %d", a, b, got, want)
		}
	}
}

func randString(rng *rand.Rand, maxLen int, alphabet string) string {
	n := rng.Intn(maxLen + 1)
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(out)
}

func TestMaxWeightIncreasingBasic(t *testing.T) {
	// Keys 5 3 4 8 6 7 with unit weights: LIS 3 4 6 7.
	items := unitItems([]int{5, 3, 4, 8, 6, 7})
	sel := maxWeightIncreasing(items)
	keys := selectedKeys(items, sel)
	want := []int{3, 4, 6, 7}
	if !equalInts(keys, want) {
		t.Errorf("LIS keys = %v, want %v", keys, want)
	}
}

func TestMaxWeightIncreasingWeightBeatsLength(t *testing.T) {
	// A single heavy item out of order should beat two light ones.
	items := []Item{{Key: 10, Weight: 100}, {Key: 1, Weight: 1}, {Key: 2, Weight: 1}}
	sel := maxWeightIncreasing(items)
	if len(sel) != 1 || items[sel[0]].Key != 10 {
		t.Errorf("selection = %v, want the heavy item", selectedKeys(items, sel))
	}
}

func TestMaxWeightIncreasingEmptyAndSingle(t *testing.T) {
	if got := maxWeightIncreasing(nil); got != nil {
		t.Errorf("empty selection = %v", got)
	}
	sel := maxWeightIncreasing([]Item{{Key: 4, Weight: 2}})
	if len(sel) != 1 || sel[0] != 0 {
		t.Errorf("single selection = %v", sel)
	}
}

// bruteMaxWeight enumerates all increasing subsequences.
func bruteMaxWeight(items []Item) float64 {
	best := 0.0
	var rec func(i int, lastKey int, w float64)
	rec = func(i int, lastKey int, w float64) {
		if w > best {
			best = w
		}
		for j := i; j < len(items); j++ {
			if items[j].Key > lastKey {
				rec(j+1, items[j].Key, w+items[j].Weight)
			}
		}
	}
	rec(0, -1<<62, 0)
	return best
}

func TestMaxWeightIncreasingOptimalSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(9)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Key: rng.Intn(12), Weight: float64(1 + rng.Intn(5))}
		}
		sel := maxWeightIncreasing(items)
		got := 0.0
		lastKey := -1 << 62
		for _, idx := range sel {
			if items[idx].Key <= lastKey {
				t.Fatalf("selection not strictly increasing: %v", selectedKeys(items, sel))
			}
			lastKey = items[idx].Key
			got += items[idx].Weight
		}
		if want := bruteMaxWeight(items); got != want {
			t.Fatalf("weight %v, brute force %v (items %v)", got, want, items)
		}
	}
}

func TestMaxWeightIncreasingSelectionSorted(t *testing.T) {
	f := func(keys []int) bool {
		items := unitItems(keys)
		sel := maxWeightIncreasing(items)
		for i := 1; i < len(sel); i++ {
			if sel[i] <= sel[i-1] {
				return false
			}
			if items[sel[i]].Key <= items[sel[i-1]].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowedIncreasingMatchesExactWhenSmall(t *testing.T) {
	items := unitItems([]int{5, 3, 4, 8, 6, 7})
	exact := maxWeightIncreasing(items)
	win := WindowedIncreasing(items, 50)
	if !equalInts(exact, win) {
		t.Errorf("windowed(50) = %v, exact = %v", win, exact)
	}
	if got := WindowedIncreasing(items, 0); !equalInts(exact, got) {
		t.Errorf("window 0 should mean exact")
	}
}

func TestWindowedIncreasingPaperExample(t *testing.T) {
	// The paper's Figure 3 discussion: v1..v6 map to w-positions
	// 6,1,2,5,3,4 roughly — cutting the list in two blocks finds
	// (v2,v3) and (v5,v6) and misses v4. Reproduce the shape: the
	// heuristic must return a valid increasing subsequence that can be
	// shorter than the optimum.
	items := unitItems([]int{9, 1, 2, 6, 3, 4})
	exact := maxWeightIncreasing(items) // 1 2 3 4: length 4
	win := WindowedIncreasing(items, 3) // blocks {9,1,2} and {6,3,4}
	if len(exact) != 4 {
		t.Fatalf("exact length = %d, want 4", len(exact))
	}
	lastKey := -1 << 62
	for _, idx := range win {
		if items[idx].Key <= lastKey {
			t.Fatalf("windowed result not increasing: %v", selectedKeys(items, win))
		}
		lastKey = items[idx].Key
	}
	if len(win) > len(exact) {
		t.Fatalf("heuristic cannot beat the optimum")
	}
}

func TestWindowedIncreasingAlwaysValidQuick(t *testing.T) {
	f := func(keys []int, windowRaw uint8) bool {
		window := int(windowRaw%10) + 1
		items := unitItems(keys)
		sel := WindowedIncreasing(items, window)
		lastIdx := -1
		lastKey, have := 0, false
		for _, idx := range sel {
			if idx <= lastIdx || (have && items[idx].Key <= lastKey) {
				return false
			}
			lastIdx, lastKey, have = idx, items[idx].Key, true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func unitItems(keys []int) []Item {
	items := make([]Item, len(keys))
	for i, k := range keys {
		items[i] = Item{Key: k, Weight: 1}
	}
	return items
}

func selectedKeys(items []Item, sel []int) []int {
	out := make([]int, len(sel))
	for i, idx := range sel {
		out[i] = items[idx].Key
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
