// Indexing: maintaining a full-text index with deltas instead of
// re-indexing (the paper's Section 2 "Indexing" motivation: "we are
// considering the possibility to use the diff to maintain such
// indexes"). The example indexes a catalog, feeds weekly deltas to the
// index, and shows that the incrementally maintained index stays
// identical to a full rebuild — while touching only the changed nodes.
//
//	go run ./examples/indexing
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/index"
	"xydiff/internal/xid"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	doc := changesim.Catalog(rng, 10, 40) // ~400 products
	fmt.Printf("catalog: %d nodes, %d bytes\n", doc.Size(), len(doc.String()))

	ix := index.New()
	cur := doc.Clone()
	xid.Assign(cur) // postings are keyed by persistent identifiers
	ix.AddDocument("catalog", cur)
	st := ix.Stats()
	fmt.Printf("indexed: {Words:%d Postings:%d Docs:%d}\n", st.Words, st.Postings, st.Docs)

	for week := 1; week <= 4; week++ {
		sim, err := changesim.Simulate(cur, changesim.Uniform(0.05, int64(week)))
		if err != nil {
			log.Fatal(err)
		}
		d, err := diff.Diff(cur, sim.New, diff.Options{})
		if err != nil {
			log.Fatal(err)
		}

		start := time.Now()
		ix.ApplyDelta("catalog", d)
		incTime := time.Since(start)

		start = time.Now()
		rebuilt := index.New()
		rebuilt.AddDocument("catalog", sim.New)
		fullTime := time.Since(start)

		same := index.Equal(ix, rebuilt)
		fmt.Printf("week %d: %s | incremental %v vs rebuild %v | identical: %v\n",
			week, d.Count(), incTime, fullTime, same)
		if !same {
			log.Fatal("incremental index diverged from rebuild")
		}
		cur = sim.New
	}

	// Structured search: postings carry XIDs, so hits resolve to paths
	// in the current version.
	hits := ix.Search("warehouse")
	fmt.Printf("\n%d text nodes currently contain \"warehouse\"\n", len(hits))
	for i, h := range hits {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		if n := dom.FindByXID(cur, h.XID); n != nil {
			fmt.Printf("  %s\n", n.Parent.Path())
		}
	}
}
