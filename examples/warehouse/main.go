// Warehouse: versions and querying the past (Section 2 of the paper).
// A document accumulates simulated weekly changes in a version store;
// the example reconstructs old versions, extracts the delta chain
// between two arbitrary versions, and reopens the warehouse from its
// directory.
//
//	go run ./examples/warehouse
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/vstore"
	"xydiff/internal/xpathlite"
)

func main() {
	rng := rand.New(rand.NewSource(2002))
	dir, err := os.MkdirTemp("", "xydiff-warehouse-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	repo, err := vstore.Open(dir, diff.Options{}, vstore.Config{})
	if err != nil {
		log.Fatal(err)
	}
	const docID = "inria/catalog.xml"

	// Week 0: the first crawl of the document.
	doc := changesim.Catalog(rng, 3, 6)
	if _, _, err := repo.Put(docID, doc); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("week 0: stored %d bytes\n", len(doc.String()))

	// Weeks 1..5: the crawler brings changed versions; only the delta
	// is added to the history.
	cur := doc
	for week := 1; week <= 5; week++ {
		sim, err := changesim.Simulate(cur, changesim.Uniform(0.08, int64(week)))
		if err != nil {
			log.Fatal(err)
		}
		v, d, err := repo.Put(docID, sim.New)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("week %d: version %d, delta %d bytes (%s)\n",
			week, v, d.Size(), d.Count())
		cur = sim.New
	}

	// Query the past: reconstruct week 2's version and count products.
	v3, err := repo.Version(docID, 3)
	if err != nil {
		log.Fatal(err)
	}
	products := dom.Select(v3.Root(), "Category/Product")
	fmt.Printf("\nweek 2 (version 3) had %d products\n", len(products))

	// What changed between versions 2 and 5? The delta chain answers
	// without touching the documents.
	chain, err := repo.DeltasBetween(docID, 2, 5)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, d := range chain {
		total += d.Count().Total()
	}
	fmt.Printf("versions 2 -> 5: %d deltas, %d operations in total\n", len(chain), total)

	// Temporal queries: the price history of the first product, by path
	// expression, across all versions.
	tl, err := repo.Timeline(docID, xpathlite.MustCompile(`//Category[1]/Product[1]/Price`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprice history of the first product:")
	for _, vv := range tl {
		if vv.Found {
			fmt.Printf("  v%d: %s\n", vv.Version, vv.Value)
		} else {
			fmt.Printf("  v%d: (product absent)\n", vv.Version)
		}
	}

	// "List of items recently introduced": inserted products since v3.
	hits, err := repo.ChangesMatching(docID, 3, 6,
		xpathlite.MustCompile(`//Product`), delta.KindInsert)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nproducts introduced after week 2: %d\n", len(hits))

	// Aggregate the whole chain into a single delta.
	agg, err := repo.Aggregate(docID, 1, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregated delta v1->v6: %d bytes (%s)\n", agg.Size(), agg.Count())

	// Every acknowledged version is on disk: close the warehouse and
	// open its directory again.
	if err := repo.Close(); err != nil {
		log.Fatal(err)
	}
	reopened, err := vstore.Open(dir, diff.Options{}, vstore.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	check, err := reopened.Version(docID, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nclosed %s and reopened: version 3 identical: %v\n",
		dir, dom.Equal(check, v3))
}
