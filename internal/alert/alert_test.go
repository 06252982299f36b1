package alert

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/delta/deltatest"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xpathlite"
)

// diffPair runs the real diff so deltas and XIDs are consistent.
func diffPair(t *testing.T, oldXML, newXML string) (*dom.Node, *dom.Node, *delta.Delta) {
	t.Helper()
	oldDoc, err := dom.ParseString(oldXML)
	if err != nil {
		t.Fatal(err)
	}
	newDoc, err := dom.ParseString(newXML)
	if err != nil {
		t.Fatal(err)
	}
	d, err := diff.Diff(oldDoc, newDoc, diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return oldDoc, newDoc, d
}

func TestNotifyNewProductSubscription(t *testing.T) {
	// The paper's example: "a new product has been added to a catalog".
	oldDoc, newDoc, d := diffPair(t,
		`<Catalog><Category><Product><Name>a</Name></Product></Category></Catalog>`,
		`<Catalog><Category><Product><Name>a</Name></Product><Product><Name>b9000</Name></Product></Category></Catalog>`)
	a := New(Subscription{
		ID:    "new-products",
		Path:  "Category/Product",
		Kinds: []delta.Kind{delta.KindInsert},
	})
	alerts := a.Notify("catalog", 2, oldDoc, newDoc, d)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v, want 1", alerts)
	}
	al := alerts[0]
	if al.SubID != "new-products" || al.Kind != delta.KindInsert {
		t.Errorf("unexpected alert %v", al)
	}
	if !strings.Contains(al.Path, "Product") {
		t.Errorf("alert path = %q", al.Path)
	}
	if !strings.Contains(al.String(), "insert") {
		t.Errorf("String = %q", al.String())
	}
}

func TestNotifyKindAndPathFilters(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t,
		`<r><a><v>1</v></a><b><v>2</v></b></r>`,
		`<r><a><v>9</v></a><b><v>2</v></b></r>`)
	a := New(
		Subscription{ID: "updates-a", Path: "a/v", Kinds: []delta.Kind{delta.KindUpdate}},
		Subscription{ID: "updates-b", Path: "b/v", Kinds: []delta.Kind{delta.KindUpdate}},
		Subscription{ID: "deletes", Kinds: []delta.Kind{delta.KindDelete}},
	)
	alerts := a.Notify("doc", 2, oldDoc, newDoc, d)
	if len(alerts) != 1 || alerts[0].SubID != "updates-a" {
		t.Fatalf("alerts = %v, want only updates-a", alerts)
	}
}

func TestNotifyContainsFilter(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t,
		`<list><item>cheap thing</item></list>`,
		`<list><item>cheap thing</item><item>rare gem</item></list>`)
	a := New(
		Subscription{ID: "gems", Contains: "gem"},
		Subscription{ID: "gold", Contains: "gold"},
	)
	alerts := a.Notify("doc", 2, oldDoc, newDoc, d)
	if len(alerts) != 1 || alerts[0].SubID != "gems" {
		t.Fatalf("alerts = %v, want only gems", alerts)
	}
}

func TestNotifyDocIDFilter(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t, `<r><x>1</x></r>`, `<r><x>2</x></r>`)
	a := New(
		Subscription{ID: "mine", DocID: "doc-1"},
		Subscription{ID: "other", DocID: "doc-2"},
	)
	alerts := a.Notify("doc-1", 2, oldDoc, newDoc, d)
	if len(alerts) != 1 || alerts[0].SubID != "mine" {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestNotifyDeleteResolvesInOldVersion(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t,
		`<r><gone><deep>x</deep></gone><stay/></r>`,
		`<r><stay/></r>`)
	a := New(Subscription{ID: "del", Kinds: []delta.Kind{delta.KindDelete}})
	alerts := a.Notify("doc", 2, oldDoc, newDoc, d)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v", alerts)
	}
	if alerts[0].Path != "/r/gone" {
		t.Errorf("delete path = %q, want /r/gone", alerts[0].Path)
	}
}

func TestNotifyEmptyDeltaAndNoSubs(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t, `<r/>`, `<r/>`)
	a := New(Subscription{ID: "any"})
	if got := a.Notify("doc", 2, oldDoc, newDoc, d); got != nil {
		t.Errorf("empty delta alerts = %v", got)
	}
	_, newDoc2, d2 := diffPair(t, `<r/>`, `<r><x/></r>`)
	empty := New()
	if got := empty.Notify("doc", 2, newDoc, newDoc2, d2); got != nil {
		t.Errorf("no-subs alerts = %v", got)
	}
}

func TestSubscribeUnsubscribe(t *testing.T) {
	a := New()
	a.Subscribe(Subscription{ID: "s1"})
	a.Subscribe(Subscription{ID: "s2"})
	a.Subscribe(Subscription{ID: "s1"})
	if got := len(a.Subscriptions()); got != 3 {
		t.Fatalf("subs = %d", got)
	}
	if !a.Unsubscribe("s1") {
		t.Fatal("Unsubscribe existing returned false")
	}
	if got := len(a.Subscriptions()); got != 1 {
		t.Fatalf("after unsubscribe subs = %d", got)
	}
	if a.Unsubscribe("ghost") {
		t.Fatal("Unsubscribe missing returned true")
	}
}

func TestPathMatches(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"", "/a/b", true},
		{"b", "/a/b", true},
		{"a/b", "/a/b", true},
		{"/a/b", "/a/b", true},
		{"/b", "/a/b", false},
		{"/a", "/a/b", false},
		{"x/b", "/a/b", false},
		{"*/b", "/a/b", true},
		{"/*/b", "/a/b", true},
		{"a/*", "/a/b", true},
		{"Product", "/Catalog/Category[2]/Product[3]", true},
		{"Category/Product", "/Catalog/Category[2]/Product[3]", true},
		{"anything", "", false},
	}
	for _, c := range cases {
		if got := pathMatches(c.pattern, c.path); got != c.want {
			t.Errorf("pathMatches(%q, %q) = %v, want %v", c.pattern, c.path, got, c.want)
		}
	}
}

func TestMoveAlertUsesNodeContent(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t,
		`<r><a><big><x>gemstone</x><y>two</y></big></a><b/></r>`,
		`<r><a/><b><big><x>gemstone</x><y>two</y></big></b></r>`)
	if d.Count().Moves == 0 {
		t.Skip("diff did not produce a move for this input")
	}
	a := New(Subscription{ID: "m", Kinds: []delta.Kind{delta.KindMove}, Contains: "gemstone"})
	alerts := a.Notify("doc", 2, oldDoc, newDoc, d)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v", alerts)
	}
}

func TestAttrAlerts(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t,
		`<r><e status="ok"/></r>`,
		`<r><e status="fail"/></r>`)
	a := New(Subscription{ID: "attr", Kinds: []delta.Kind{delta.KindUpdateAttr}, Contains: "fail"})
	alerts := a.Notify("doc", 2, oldDoc, newDoc, d)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v\ndelta:\n%s", alerts, d)
	}
}

func TestQuerySubscription(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t,
		`<Catalog><Product><Name>a</Name><Price>$100</Price></Product></Catalog>`,
		`<Catalog><Product><Name>a</Name><Price>$100</Price></Product><Product><Name>lux</Name><Price>$900</Price></Product></Catalog>`)
	a := New(
		Subscription{ID: "expensive", Query: xpathlite.MustCompile(`//Product[Price>500]`), Kinds: []delta.Kind{delta.KindInsert}},
		Subscription{ID: "cheap", Query: xpathlite.MustCompile(`//Product[Price<=500]`), Kinds: []delta.Kind{delta.KindInsert}},
	)
	alerts := a.Notify("doc", 2, oldDoc, newDoc, d)
	if len(alerts) != 1 || alerts[0].SubID != "expensive" {
		t.Fatalf("alerts = %v, want only expensive", alerts)
	}
}

func TestQuerySubscriptionTextUpdateFallsBackToParent(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t,
		`<Catalog><Product><Name>a</Name><Price>$100</Price></Product></Catalog>`,
		`<Catalog><Product><Name>a</Name><Price>$150</Price></Product></Catalog>`)
	a := New(Subscription{ID: "price-watch", Query: xpathlite.MustCompile(`//Product/Price`), Kinds: []delta.Kind{delta.KindUpdate}})
	alerts := a.Notify("doc", 2, oldDoc, newDoc, d)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v", alerts)
	}
}

// ---------------------------------------------------------------------------
// Reference evaluator. notifyReference is Notify as it was before the
// compiled, set-based evaluation: one XID index of each whole tree, a
// Path string per operation, patterns and paths re-split per
// subscription, a full xpathlite Select per operation and query. It is
// kept here, sharing nothing with Notify but contentContains and
// kindMatches, so the tests below can hold the fast path to its exact
// output (order, Path, Kind, XID and OpIndex included).

func notifyReference(subs []Subscription, docID string, newVersion int, oldDoc, newDoc *dom.Node, d *delta.Delta) []Alert {
	if d.Empty() || len(subs) == 0 {
		return nil
	}
	oldIdx := indexXIDs(oldDoc)
	newIdx := indexXIDs(newDoc)
	var alerts []Alert
	for i, op := range d.Ops {
		node, path := locate(op, oldIdx, newIdx)
		for _, s := range subs {
			if s.DocID != "" && s.DocID != docID {
				continue
			}
			if !kindMatches(s.Kinds, op.Kind) {
				continue
			}
			if s.Query != nil {
				if node == nil || !queryMatches(s.Query, node) {
					continue
				}
			} else if s.Path != "" && !pathMatches(s.Path, path) {
				continue
			}
			if s.Contains != "" && !contentContains(&op, node, s.Contains) {
				continue
			}
			alerts = append(alerts, Alert{SubID: s.ID, DocID: docID, Version: newVersion, Kind: op.Kind, XID: op.XID, OpIndex: int32(i), Path: path})
		}
	}
	return alerts
}

func indexXIDs(doc *dom.Node) map[int64]*dom.Node {
	idx := make(map[int64]*dom.Node)
	if doc == nil {
		return idx
	}
	dom.WalkPre(doc, func(n *dom.Node) bool {
		if n.XID != 0 {
			idx[n.XID] = n
		}
		return true
	})
	return idx
}

// locate resolves the node an operation is about, preferring the new
// version (deletes resolve in the old version).
func locate(op delta.Op, oldIdx, newIdx map[int64]*dom.Node) (*dom.Node, string) {
	var n *dom.Node
	if op.Kind == delta.KindDelete {
		n = oldIdx[op.XID]
	} else {
		n = newIdx[op.XID]
		if n == nil {
			n = oldIdx[op.XID]
		}
	}
	if n == nil {
		return nil, ""
	}
	if n.Type == dom.Text && n.Parent != nil {
		return n, n.Parent.Path()
	}
	return n, n.Path()
}

func queryMatches(q *xpathlite.Expr, n *dom.Node) bool {
	if q.Matches(n) {
		return true
	}
	return n.Type == dom.Text && n.Parent != nil && q.Matches(n.Parent)
}

// pathMatches compares a subscription pattern against a node path.
// Both are segmented on "/" with position predicates stripped; an
// anchored pattern (leading "/") must match the full path, otherwise a
// suffix match suffices. "*" matches any single segment.
func pathMatches(pattern, path string) bool {
	if path == "" {
		return false
	}
	p := segments(pattern)
	n := segments(path)
	if len(p) == 0 {
		return true
	}
	if strings.HasPrefix(pattern, "/") {
		if len(p) != len(n) {
			return false
		}
		return segsMatch(p, n)
	}
	if len(p) > len(n) {
		return false
	}
	return segsMatch(p, n[len(n)-len(p):])
}

func segsMatch(pattern, path []string) bool {
	for i := range pattern {
		if pattern[i] != "*" && pattern[i] != path[i] {
			return false
		}
	}
	return true
}

// TestPlanPathMatchesAgreesWithStrings holds the parent-walking matcher
// to the string matcher on every node of a document with repeated
// labels, text, a comment and a processing instruction.
func TestPlanPathMatchesAgreesWithStrings(t *testing.T) {
	doc, err := dom.ParseWithOptions(strings.NewReader(
		`<?xml version="1.0"?><a><?pi x?><b><c>t</c><c>u<!--k--></c></b><b><d/></b><c><b><c>v</c></b></c></a>`),
		dom.ParseOptions{KeepComments: true, KeepProcInsts: true})
	if err != nil {
		t.Fatal(err)
	}
	patterns := []string{
		"/", "//", "a", "/a", "b", "/b", "a/b", "/a/b", "b/c", "/a/b/c", "a/b/c/d", "/a/b/c/d",
		"*", "/*", "*/c", "/*/*/c", "/*/*/*/*/*", "c/text()", "text()", "b[2]/c", "c[1]", "/a[1]/b[2]/d",
		"comment()", "c/comment()", "processing-instruction()", "/a/processing-instruction()", "x", "b//c",
	}
	nodes := dom.Preorder(doc)
	if len(nodes) < 15 {
		t.Fatalf("parsed only %d nodes", len(nodes))
	}
	for _, pat := range patterns {
		p := compile([]Subscription{{ID: "s", Path: pat}}).plans[0]
		for _, n := range nodes {
			if got, want := p.pathMatches(n), pathMatches(pat, n.Path()); got != want {
				t.Errorf("pattern %q on %s: plan says %v, strings say %v", pat, n.Path(), got, want)
			}
		}
		if p.pathMatches(nil) {
			t.Errorf("pattern %q matches a nil node", pat)
		}
	}
}

// simPair returns a changesim version pair and the delta the given
// matcher computes between them, XIDs consistent.
func simPair(t testing.TB, html bool, seed int64, size int, matcher diff.Matcher) (*dom.Node, *dom.Node, *delta.Delta) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var oldDoc, newDoc *dom.Node
	if html {
		oldDoc = changesim.HTMLPage(rng, size)
		res, err := changesim.SimulateHTML(oldDoc, changesim.UniformHTML(0.12, seed))
		if err != nil {
			t.Fatal(err)
		}
		newDoc = res.New
	} else {
		oldDoc = changesim.CatalogOfSize(rng, size)
		res, err := changesim.Simulate(oldDoc, changesim.Uniform(0.10, seed))
		if err != nil {
			t.Fatal(err)
		}
		newDoc = res.New
	}
	// Fresh trees: the simulators leave their own XIDs behind.
	oldDoc, newDoc = reparse(t, oldDoc), reparse(t, newDoc)
	d, err := diff.Diff(oldDoc, newDoc, diff.Options{Matcher: matcher})
	if err != nil {
		t.Fatal(err)
	}
	return oldDoc, newDoc, d
}

func reparse(t testing.TB, doc *dom.Node) *dom.Node {
	t.Helper()
	out, err := dom.ParseString(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// generatedSubs draws a subscription set from the vocabulary of the two
// corpora: every filter the alerter has, alone and combined.
func generatedSubs(rng *rand.Rand, docID string) []Subscription {
	paths := []string{
		"", "Product", "Category/Product", "Product/Price", "/Catalog/Category/Product/Name", "/Catalog/*/Product",
		"*/Description", "Price/text()", "ul/li", "div/h2", "/html/body", "li", "nosuch/path", "/",
	}
	queries := []string{
		`//Product[Price>500]`, `//Product[@status='sale']`, `//Product/Price`, `//Price`, `/Catalog/Category/Product`,
		`Product | //Category/Title`, `Name | Price`, `.`, `..`, `//Product[Price>500] | //Manufacturer`,
		`/html/head/title`, `//li`, `//div/h2 | p`, `//text()`, `//*[@class]`, `//nosuch`,
	}
	contains := []string{"", "", "", "a", "$1", "sale", "the", "zzzz"}
	allKinds := []delta.Kind{
		delta.KindInsert, delta.KindDelete, delta.KindUpdate, delta.KindMove,
		delta.KindInsertAttr, delta.KindDeleteAttr, delta.KindUpdateAttr,
	}
	subs := []Subscription{{ID: "everything"}}
	for i := 0; i < 24; i++ {
		s := Subscription{ID: fmt.Sprintf("s%d", i), Contains: contains[rng.Intn(len(contains))]}
		if rng.Intn(2) == 0 {
			s.Query = xpathlite.MustCompile(queries[rng.Intn(len(queries))])
		} else {
			s.Path = paths[rng.Intn(len(paths))]
		}
		for _, k := range allKinds {
			if rng.Intn(3) == 0 {
				s.Kinds = append(s.Kinds, k)
			}
		}
		switch rng.Intn(5) {
		case 0:
			s.DocID = docID
		case 1:
			s.DocID = "another-document"
		}
		subs = append(subs, s)
	}
	// Two subscriptions sharing an ID are legal.
	subs = append(subs, Subscription{ID: "s0", Kinds: []delta.Kind{delta.KindDelete}})
	return subs
}

func equalAlerts(a, b []Alert) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d alerts, reference has %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("alert %d is %+v, reference has %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestNotifyMatchesReference runs Notify and the reference evaluator
// over catalog and HTML version pairs, under both matchers, with
// generated subscription sets, and requires identical alert lists.
func TestNotifyMatchesReference(t *testing.T) {
	total := 0
	for _, html := range []bool{false, true} {
		for _, matcher := range []diff.Matcher{diff.MatcherBULD, diff.MatcherSFTM} {
			for seed := int64(1); seed <= 4; seed++ {
				size := 12000
				if html {
					size = 12
				}
				oldDoc, newDoc, d := simPair(t, html, seed, size, matcher)
				if d.Count().Deletes == 0 || d.Count().Updates == 0 {
					t.Fatalf("html=%v %s seed %d: delta too plain to test with: %s", html, matcher, seed, d.Count())
				}
				subs := generatedSubs(rand.New(rand.NewSource(seed)), "doc")
				want := notifyReference(subs, "doc", 7, oldDoc, newDoc, d)
				got := New(subs...).Notify("doc", 7, oldDoc, newDoc, d)
				if err := equalAlerts(got, want); err != nil {
					t.Errorf("html=%v %s seed %d: %v", html, matcher, seed, err)
				}
				total += len(want)
			}
		}
	}
	if total < 1000 {
		t.Errorf("only %d alerts compared; the generated subscriptions match too little", total)
	}
}

// TestNotifyReferenceCases pins the named behaviours on hand-written
// pairs, each against the reference: an unrestricted predicate query, a
// relative query, a union, Contains, DocID filters, the text-node →
// parent fallback, and deletes resolved in the old tree.
func TestNotifyReferenceCases(t *testing.T) {
	oldXML := `<Catalog><Category><Title>tools</Title>` +
		`<Product status="sale"><Name>saw</Name><Price>$900</Price></Product>` +
		`<Product><Name>axe</Name><Price>$40</Price></Product>` +
		`<Product><Name>gone</Name><Price>$700</Price><Note>last one</Note></Product></Category></Catalog>`
	newXML := `<Catalog><Category><Title>tools</Title>` +
		`<Product status="new"><Name>saw</Name><Price>$950</Price></Product>` +
		`<Product><Name>axe</Name><Price>$45</Price></Product></Category>` +
		`<Category><Title>machines</Title><Product><Name>lathe</Name><Price>$2000</Price></Product></Category></Catalog>`
	oldDoc, newDoc, d := diffPair(t, oldXML, newXML)
	cases := []struct {
		name string
		sub  Subscription
		min  int
	}{
		{"unrestricted predicate", Subscription{Query: xpathlite.MustCompile(`//Product[Price>500]`)}, 1},
		{"relative query", Subscription{Query: xpathlite.MustCompile(`Price`)}, 0},
		{"self query", Subscription{Query: xpathlite.MustCompile(`.`)}, 1},
		{"union", Subscription{Query: xpathlite.MustCompile(`//Name | //Product[@status]`)}, 1},
		{"contains", Subscription{Contains: "lathe"}, 1},
		{"doc filter hit", Subscription{DocID: "doc"}, 1},
		{"doc filter miss", Subscription{DocID: "other"}, 0},
		{"text falls back to parent, path", Subscription{Path: "Product/Price", Kinds: []delta.Kind{delta.KindUpdate}}, 1},
		{"text falls back to parent, query", Subscription{Query: xpathlite.MustCompile(`//Product/Price`), Kinds: []delta.Kind{delta.KindUpdate}}, 1},
		{"delete resolves in the old tree", Subscription{Path: "/Catalog/Category/Product", Kinds: []delta.Kind{delta.KindDelete}}, 1},
		{"delete by old-tree query", Subscription{Query: xpathlite.MustCompile(`//Product[Price>500]`), Kinds: []delta.Kind{delta.KindDelete}}, 1},
	}
	for _, c := range cases {
		c.sub.ID = c.name
		want := notifyReference([]Subscription{c.sub}, "doc", 2, oldDoc, newDoc, d)
		got := New(c.sub).Notify("doc", 2, oldDoc, newDoc, d)
		if err := equalAlerts(got, want); err != nil {
			t.Errorf("%s: %v\ndelta:\n%s", c.name, err, d)
		}
		if len(want) < c.min {
			t.Errorf("%s: reference raised %d alerts, the case wants at least %d\ndelta:\n%s", c.name, len(want), c.min, d)
		}
	}
}

// TestNotifyConcurrentWithSubscriptionChanges runs Notify against a
// stream of Subscribe/Unsubscribe (the race detector watches the
// shared lists) and checks the contract Unsubscribe gives:
// a Notify that starts after it returned raises nothing for that ID.
func TestNotifyConcurrentWithSubscriptionChanges(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t,
		`<r><a><v>1</v></a><b><v>2</v></b></r>`,
		`<r><a><v>9</v></a><b><v>3</v></b><c/></r>`)
	countSub := func(alerts []Alert, id string) int {
		n := 0
		for _, al := range alerts {
			if al.SubID == id {
				n++
			}
		}
		return n
	}
	a := New(Subscription{ID: "keep"})
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Whatever list this Notify started with, each of its
				// subscriptions fires once per operation: "keep" does.
				if n := countSub(a.Notify("doc", 2, oldDoc, newDoc, d), "keep"); n != len(d.Ops) {
					t.Errorf("keep fired %d times for %d ops", n, len(d.Ops))
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				id := fmt.Sprintf("tmp-%d-%d", g, i)
				a.Subscribe(Subscription{ID: id})
				if n := countSub(a.Notify("doc", 2, oldDoc, newDoc, d), id); n != len(d.Ops) {
					t.Errorf("%s fired %d times while subscribed, want %d", id, n, len(d.Ops))
				}
				if !a.Unsubscribe(id) {
					t.Errorf("Unsubscribe(%s) found nothing", id)
				}
				if n := countSub(a.Notify("doc", 2, oldDoc, newDoc, d), id); n != 0 {
					t.Errorf("%s fired %d times after Unsubscribe returned", id, n)
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := a.Subscriptions(); len(got) != 1 || got[0].ID != "keep" {
		t.Errorf("subscriptions left = %v, want only keep", got)
	}
}

// BenchmarkNotifyUnrestrictedXPath is the case the end-to-end benchmark
// had to avoid: one //Product[Price>500] subscription with no kind
// filter on a ~340 KB catalog PUT (10% churn, ~1700 operations).
func BenchmarkNotifyUnrestrictedXPath(b *testing.B) {
	oldDoc, newDoc, d := simPair(b, false, 1, 340000, diff.MatcherBULD)
	a := New(Subscription{ID: "expensive", Query: xpathlite.MustCompile(`//Product[Price>500]`)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchAlerts = a.Notify("catalog", 2, oldDoc, newDoc, d)
	}
	b.ReportMetric(float64(len(d.Ops)), "ops")
	b.ReportMetric(float64(len(benchAlerts)), "alerts")
}

var benchAlerts []Alert

// TestAlertsPinNoSubtree: an alert names its operation and holds none of
// it, so once the delta is dropped every subtree its inserts and deletes
// carried can be collected while the alerts are still in use.
func TestAlertsPinNoSubtree(t *testing.T) {
	var w *deltatest.Subtrees
	alerts, ops := func() ([]Alert, int) {
		oldDoc, newDoc, d := diffPair(t,
			`<Catalog><Category><Product sku="1"><Name>saw</Name><Price>$9</Price></Product>`+
				`<Product sku="2"><Name>axe</Name><Price>$4</Price></Product></Category></Catalog>`,
			`<Catalog><Category><Product sku="1"><Name>saw</Name><Price>$9</Price></Product></Category>`+
				`<Category name="machines"><Product sku="3"><Name>lathe</Name><Price>$2000</Price></Product></Category></Catalog>`)
		w = deltatest.WatchSubtrees(t, d)
		return New(Subscription{ID: "all"}).Notify("doc", 2, oldDoc, newDoc, d), len(d.Ops)
	}()
	if len(alerts) != ops {
		t.Fatalf("%d alerts for %d ops, want one each", len(alerts), ops)
	}
	if freed, watched := w.Collected(); freed != watched {
		t.Errorf("%d of %d insert and delete subtrees were collected; the alerts keep the rest reachable", freed, watched)
	}
	runtime.KeepAlive(alerts)
}

// TestAlertNamesItsOpInTheStoredDelta: an alert's OpIndex, Kind and XID
// point at its op in the delta as stored — serialized and parsed back —
// and tell apart two ops of one kind on one element.
func TestAlertNamesItsOpInTheStoredDelta(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t,
		`<r><e a="1" b="2" c="3"><v>old</v></e><gone k="x"/></r>`,
		`<r><e a="9" b="8"><v>new</v></e><added k="y"/></r>`)
	var buf strings.Builder
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stored, err := delta.ParseString(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	alerts := New(Subscription{ID: "all"}).Notify("doc", 2, oldDoc, newDoc, d)
	if len(alerts) != len(stored.Ops) {
		t.Fatalf("%d alerts for %d ops, want one each", len(alerts), len(stored.Ops))
	}
	attrUpdates := map[int64]int{}
	for i, a := range alerts {
		if int(a.OpIndex) != i {
			t.Errorf("alert %d names op %d", i, a.OpIndex)
		}
		op := stored.Ops[a.OpIndex]
		if op.Kind != a.Kind || op.XID != a.XID {
			t.Errorf("alert %v names op %d, which is %s on xid %d", a, a.OpIndex, op.Kind, op.XID)
		}
		if a.Kind == delta.KindUpdateAttr {
			attrUpdates[a.XID]++
		}
	}
	if len(attrUpdates) != 1 {
		t.Fatalf("update-attribute alerts on %d elements, want 2 on one: %v", len(attrUpdates), alerts)
	}
	for _, n := range attrUpdates {
		if n != 2 {
			t.Fatalf("%d update-attribute alerts on one element, want 2: %v", n, alerts)
		}
	}
}
