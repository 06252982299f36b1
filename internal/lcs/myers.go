package lcs

// EditKind classifies one element of an edit script.
type EditKind uint8

// Edit kinds: elements kept, deleted from the first sequence, or
// inserted from the second.
const (
	Keep EditKind = iota
	Delete
	Insert
)

// Edit is one step of a minimal edit script between two sequences.
// For Keep and Delete, AIdx indexes the first sequence; for Keep and
// Insert, BIdx indexes the second.
type Edit struct {
	Kind EditKind
	aIdx int
	bIdx int
}

// Myers computes a minimal edit script between a and b using the
// greedy O((N+M)·D) algorithm of Myers (1986), the algorithm behind
// Unix diff. Lines are compared by string equality.
func Myers(a, b []string) []Edit {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return nil
	}
	max := n + m
	// v[k] = furthest x on diagonal k (offset by max).
	v := make([]int, 2*max+2)
	// trace of v per d for backtracking.
	var trace [][]int
	var dFound = -1
search:
	for d := 0; d <= max; d++ {
		snapshot := make([]int, len(v))
		copy(snapshot, v)
		trace = append(trace, snapshot)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[max+k-1] < v[max+k+1]) {
				x = v[max+k+1] // down: insert from b
			} else {
				x = v[max+k-1] + 1 // right: delete from a
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[max+k] = x
			if x >= n && y >= m {
				dFound = d
				break search
			}
		}
	}
	// Backtrack from (n, m).
	var rev []Edit
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vPrev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vPrev[max+k-1] < vPrev[max+k+1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vPrev[max+prevK]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			rev = append(rev, Edit{Kind: Keep, aIdx: x, bIdx: y})
		}
		if x == prevX {
			y--
			rev = append(rev, Edit{Kind: Insert, aIdx: x, bIdx: y})
		} else {
			x--
			rev = append(rev, Edit{Kind: Delete, aIdx: x, bIdx: y})
		}
	}
	for x > 0 && y > 0 {
		x--
		y--
		rev = append(rev, Edit{Kind: Keep, aIdx: x, bIdx: y})
	}
	out := make([]Edit, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}
