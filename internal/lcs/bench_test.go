package lcs

import (
	"fmt"
	"math/rand"
	"testing"
)

func randItems(n, keyRange int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: rng.Intn(keyRange), Weight: 1 + rng.Float64()*10}
	}
	return items
}

func BenchmarkMaxWeightIncreasing(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		items := randItems(n, n*2, int64(n))
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				maxWeightIncreasing(nil, items)
			}
		})
	}
}

func BenchmarkWindowedIncreasing(b *testing.B) {
	items := randItems(10000, 20000, 7)
	b.Run("window=50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			WindowedIncreasing(nil, items, 50)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			maxWeightIncreasing(nil, items)
		}
	})
}

func BenchmarkMyers(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	words := []string{"alpha", "beta", "gamma", "delta"}
	mk := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = words[rng.Intn(len(words))]
		}
		return out
	}
	x, y := mk(500), mk(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Myers(x, y)
	}
}

func sizeName(n int) string { return fmt.Sprintf("n=%d", n) }
