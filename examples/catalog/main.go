// Catalog monitoring: the paper's subscription scenario (Section 2).
// A product catalog evolves through versions in a version store; an
// alerter watches the deltas for interesting changes — new products,
// price updates, disappearing items — exactly what the Xyleme
// subscription system did.
//
//	go run ./examples/catalog
package main

import (
	"fmt"
	"log"

	"xydiff"
	"xydiff/internal/alert"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/vstore"
)

var versions = []string{
	`<Catalog>
	  <Category><Title>Cameras</Title>
	    <Product><Name>tx123</Name><Price>$499</Price></Product>
	    <Product><Name>zy456</Name><Price>$799</Price></Product>
	  </Category>
	</Catalog>`,
	// v2: a new product appears, one price drops.
	`<Catalog>
	  <Category><Title>Cameras</Title>
	    <Product><Name>tx123</Name><Price>$499</Price></Product>
	    <Product><Name>zy456</Name><Price>$699</Price></Product>
	    <Product><Name>mk900</Name><Price>$1299</Price></Product>
	  </Category>
	</Catalog>`,
	// v3: tx123 is discontinued, mk900 gets cheaper.
	`<Catalog>
	  <Category><Title>Cameras</Title>
	    <Product><Name>zy456</Name><Price>$699</Price></Product>
	    <Product><Name>mk900</Name><Price>$999</Price></Product>
	  </Category>
	</Catalog>`,
}

func main() {
	repo, err := vstore.Open("", diff.Options{}, vstore.Config{}) // in memory
	if err != nil {
		log.Fatal(err)
	}
	alerter := alert.New(
		alert.Subscription{
			ID:    "new-products",
			Path:  "Category/Product",
			Kinds: []delta.Kind{delta.KindInsert},
		},
		alert.Subscription{
			ID:    "price-changes",
			Path:  "Product/Price",
			Kinds: []delta.Kind{delta.KindUpdate},
		},
		alert.Subscription{
			ID:    "discontinued",
			Path:  "Category/Product",
			Kinds: []delta.Kind{delta.KindDelete},
		},
	)

	const docID = "shop/catalog.xml"
	var prev *xydiff.Node
	for i, src := range versions {
		doc, err := xydiff.ParseString(src)
		if err != nil {
			log.Fatal(err)
		}
		// Keep the exact stored version (XIDs included) for alerting.
		version, d, err := repo.Put(docID, doc)
		if err != nil {
			log.Fatal(err)
		}
		cur, _, err := repo.Latest(docID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== installed version %d ==\n", version)
		if d == nil {
			fmt.Println("  (first version: nothing to compare)")
			prev = cur
			continue
		}
		fmt.Printf("  delta: %s\n", d.Count())
		for _, a := range alerter.Notify(docID, version, prev, cur, d) {
			fmt.Printf("  ALERT %s\n", a)
		}
		prev = cur
		_ = i
	}

	// The past stays queryable: what did the catalog look like at v1?
	v1, err := repo.Version(docID, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nversion 1 reconstructed from the stored delta chain:\n%s\n", v1)
}
