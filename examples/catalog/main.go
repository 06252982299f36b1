// Catalog monitoring: the paper's subscription scenario (Section 2).
// A product catalog evolves through versions in a warehouse, whose
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
	"xydiff/internal/delta"
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
	w := xydiff.NewWarehouse() // in memory
	for _, sub := range []xydiff.Subscription{
		{ID: "new-products", Path: "Category/Product", Kinds: []delta.Kind{delta.KindInsert}},
		{ID: "price-changes", Path: "Product/Price", Kinds: []delta.Kind{delta.KindUpdate}},
		{ID: "discontinued", Path: "Category/Product", Kinds: []delta.Kind{delta.KindDelete}},
	} {
		w.Subscribe(sub)
	}

	const docID = "shop/catalog.xml"
	for _, src := range versions {
		doc, err := xydiff.ParseString(src)
		if err != nil {
			log.Fatal(err)
		}
		// One Load stores the version, diffs it against the previous
		// one and evaluates the subscriptions against the delta.
		res, err := w.Load(docID, doc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== installed version %d ==\n", res.Version)
		if res.Delta == nil {
			fmt.Println("  (first version: nothing to compare)")
			continue
		}
		fmt.Printf("  delta: %s\n", res.Delta.Count())
		for _, a := range res.Alerts {
			fmt.Printf("  ALERT %s\n", a)
		}
	}

	// The past stays queryable: what did the catalog look like at v1?
	v1, err := w.Version(docID, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nversion 1 reconstructed from the stored delta chain:\n%s\n", v1)
}
