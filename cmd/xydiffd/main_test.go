package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"xydiff/internal/changesim"
	"xydiff/internal/crawl"
	"xydiff/internal/diff"
	"xydiff/internal/server"
	"xydiff/internal/vstore"
)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL, a cancel to trigger graceful shutdown, and the channel run's
// error arrives on.
func startDaemon(t *testing.T, dir string) (url string, shutdown context.CancelFunc, done chan error) {
	t.Helper()
	cfg := config{
		addr:   "127.0.0.1:0",
		dir:    dir,
		logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		server: server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))},
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done = make(chan error, 1)
	go func() { done <- run(ctx, cfg, func(a string) { addrc <- a }) }()
	select {
	case a := <-addrc:
		return "http://" + a, cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
		return "", nil, nil
	}
}

func waitExit(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func put(t *testing.T, url, id, body string) {
	t.Helper()
	req, err := http.NewRequest("PUT", url+"/docs/"+id, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT %s: %d %s", id, resp.StatusCode, b)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestGracefulShutdownAndRestart is the daemon's acceptance test:
// versions installed over HTTP survive a graceful shutdown, and a
// restarted daemon serves every stored version and delta from disk.
func TestGracefulShutdownAndRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	v1 := `<Catalog><Product><Name>tx123</Name></Product></Catalog>`
	v2 := `<Catalog><Product><Name>tx123</Name></Product><Product><Name>zy456</Name></Product></Catalog>`

	url, shutdown, done := startDaemon(t, dir)
	put(t, url, "catalog", v1)
	put(t, url, "catalog", v2)
	shutdown()
	waitExit(t, done)

	// Fresh process state: everything must come back from disk.
	url, shutdown, done = startDaemon(t, dir)
	defer func() { shutdown(); waitExit(t, done) }()

	if code, body := get(t, url+"/docs/catalog/versions/1"); code != 200 || body != v1 {
		t.Errorf("v1 after restart: %d %q", code, body)
	}
	if code, body := get(t, url+"/docs/catalog"); code != 200 || body != v2 {
		t.Errorf("latest after restart: %d %q", code, body)
	}
	if code, body := get(t, url+"/docs/catalog/deltas/1"); code != 200 || !strings.Contains(body, "zy456") {
		t.Errorf("delta after restart: %d %q", code, body)
	}
	// And the restarted daemon still accepts new versions on top.
	put(t, url, "catalog", v1)
	if code, _ := get(t, url+"/docs/catalog/versions/3"); code != 200 {
		t.Errorf("v3 after restart put: %d", code)
	}
}

func TestShutdownWithoutTraffic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	_, shutdown, done := startDaemon(t, dir)
	shutdown()
	waitExit(t, done)
}

// logBuffer is an io.Writer the daemon's logger and a test may share.
type logBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestShutdownEndsAlertStreams: an open alert stream does not hold up
// shutdown until its follow duration runs out. The daemon ends it, the
// client reads a complete body, and the store is checkpointed with no
// shutdown error.
func TestShutdownEndsAlertStreams(t *testing.T) {
	logs := &logBuffer{}
	logger := slog.New(slog.NewTextHandler(logs, nil))
	cfg := config{
		addr:   "127.0.0.1:0",
		dir:    filepath.Join(t.TempDir(), "data"),
		logger: logger,
		server: server.Config{Logger: logger},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, func(a string) { addrc <- a }) }()
	var url string
	select {
	case a := <-addrc:
		url = "http://" + a
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	}
	put(t, url, "catalog", `<Catalog><Product><Name>a</Name></Product></Catalog>`)
	resp, err := http.Get(url + "/docs/catalog/alerts?follow=60s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow status = %d", resp.StatusCode)
	}
	body := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(resp.Body)
		body <- err
	}()

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("daemon still shutting down 2s after cancel: the open stream holds it up")
	}
	t.Logf("shut down in %v", time.Since(start))
	select {
	case err := <-body:
		if err != nil {
			t.Errorf("stream body cut short: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("stream body still open after shutdown")
	}
	out := logs.String()
	if strings.Contains(out, "msg=shutdown") {
		t.Errorf("shutdown logged an error:\n%s", out)
	}
	if !strings.Contains(out, "store checkpointed") {
		t.Errorf("no checkpoint logged:\n%s", out)
	}
}

// startCrawlDaemon is startDaemon with the acquisition layer enabled on
// a fast schedule.
func startCrawlDaemon(t *testing.T, dir string) (url string, shutdown context.CancelFunc, done chan error) {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg := config{
		addr:     "127.0.0.1:0",
		dir:      dir,
		logger:   quiet,
		server:   server.Config{Logger: quiet},
		crawl:    true,
		crawlMin: 20 * time.Millisecond,
		crawlMax: 100 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done = make(chan error, 1)
	go func() { done <- run(ctx, cfg, func(a string) { addrc <- a }) }()
	select {
	case a := <-addrc:
		return "http://" + a, cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
		return "", nil, nil
	}
}

// TestCrawlFlagEndToEnd: a -crawl daemon polls an origin into its
// store, and the source registry (with its learned validators) survives
// a graceful restart alongside the documents.
func TestCrawlFlagEndToEnd(t *testing.T) {
	origin, err := changesim.ServeCorpus(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	path := origin.Paths()[0]

	dir := filepath.Join(t.TempDir(), "data")
	url, shutdown, done := startCrawlDaemon(t, dir)

	src := `{"id":"feed","url":"` + originSrv.URL + path + `"}`
	req, err := http.NewRequest("POST", url+"/sources", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /sources: %d", resp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := get(t, url+"/docs/feed/versions/1"); code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crawled document never reached the store")
		}
		time.Sleep(10 * time.Millisecond)
	}
	shutdown()
	waitExit(t, done)

	// Restart: the registry comes back from disk next to the store.
	url, shutdown, done = startCrawlDaemon(t, dir)
	defer func() { shutdown(); waitExit(t, done) }()
	code, body := get(t, url+"/sources")
	if code != 200 || !strings.Contains(body, `"feed"`) {
		t.Fatalf("sources after restart: %d %s", code, body)
	}
	if !strings.Contains(body, `"etag"`) {
		t.Errorf("restarted source lost its validators: %s", body)
	}
	if code, _ := get(t, url+"/docs/feed/versions/1"); code != 200 {
		t.Errorf("crawled document lost across restart: %d", code)
	}
}

// TestCrawlMutationBecomesDelta: two sources registered on a -crawl
// daemon arrive as version 1, a mutation at the origin becomes a diffed
// version 2 with its delta, and after shutdown the registry file holds
// both sources with the validators and fetch counts they learned.
func TestCrawlMutationBecomesDelta(t *testing.T) {
	origin, err := changesim.ServeCorpus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	paths := origin.Paths()

	dir := filepath.Join(t.TempDir(), "data")
	url, shutdown, done := startCrawlDaemon(t, dir)
	stopped := false
	defer func() {
		if !stopped {
			shutdown()
			waitExit(t, done)
		}
	}()

	for i, id := range []string{"d0", "d1"} {
		src := `{"id":"` + id + `","url":"` + originSrv.URL + paths[i] + `"}`
		resp, err := http.Post(url+"/sources", "application/json", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /sources %s: %d", id, resp.StatusCode)
		}
	}
	waitCode := func(path string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if code, _ := get(t, url+path); code == http.StatusOK {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s to answer 200", path)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Both documents arrive as version 1.
	waitCode("/docs/d0/versions/1")
	waitCode("/docs/d1/versions/1")
	// A mutation at the origin becomes a diffed version 2 at the daemon.
	if err := origin.Mutate(paths[0]); err != nil {
		t.Fatal(err)
	}
	waitCode("/docs/d0/versions/2")
	waitCode("/docs/d0/deltas/1")

	shutdown()
	waitExit(t, done)
	stopped = true

	// The saved registry resumes with the learned validators.
	reg, err := crawl.OpenRegistry(filepath.Join(dir, "crawl-sources.json"))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 {
		t.Fatalf("saved registry has %d sources, want 2", reg.Len())
	}
	for _, id := range []string{"d0", "d1"} {
		src, ok := reg.Get(id)
		if !ok {
			t.Fatalf("source %s missing from saved registry", id)
		}
		if src.ETag == "" || src.Fetches == 0 {
			t.Errorf("source %s saved without learned state: %+v", id, src)
		}
	}
}

var listenAddrRe = regexp.MustCompile(`msg="xydiffd listening" addr=(\S+)`)

// TestKillNineLosesNoAcknowledgedPut is the durability acceptance test:
// a real xydiffd process under -journal-sync=always is killed with
// SIGKILL (no shutdown, no checkpoint) — while concurrent writers are
// driving group-committed PUTs — and every PUT it acknowledged must
// reconstruct byte-identically from the segment logs alone.
func TestKillNineLosesNoAcknowledgedPut(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a subprocess")
	}
	tmp := t.TempDir()
	dir := filepath.Join(tmp, "data")
	bin := filepath.Join(tmp, "xydiffd.test.bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir, "-journal-sync", "always")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenAddrRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	var url string
	select {
	case a := <-addrc:
		url = "http://" + a
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never reported its address")
	}

	// Acknowledge a handful of versions across two documents, recording
	// exactly what the live daemon serves for each.
	versions := []string{
		`<Catalog><Product><Name>tx123</Name></Product></Catalog>`,
		`<Catalog><Product><Name>tx123</Name></Product><Product><Name>zy456</Name></Product></Catalog>`,
		`<Catalog><Product><Name>zy456</Name><Price>$450</Price></Product></Catalog>`,
	}
	for _, v := range versions {
		put(t, url, "catalog", v)
	}
	put(t, url, "other", `<r><p>solo</p></r>`)
	served := make([]string, len(versions))
	for i := range versions {
		code, body := get(t, url+"/docs/catalog/versions/"+strconv.Itoa(i+1))
		if code != 200 {
			t.Fatalf("version %d before kill: %d %s", i+1, code, body)
		}
		served[i] = body
	}

	// Concurrent writers drive group-committed PUTs across the shards;
	// the kill lands somewhere in the middle of their run. Every 2xx the
	// daemon returned is an acknowledged, fsynced version.
	type acked struct {
		id, want string
		version  int
	}
	var (
		mu        sync.Mutex
		ackedPuts []acked
	)
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("hot-%02d", w)
			for v := 1; ; v++ {
				xml := fmt.Sprintf(`<r><w>%d</w><v>%d</v></r>`, w, v)
				req, err := http.NewRequest("PUT", url+"/docs/"+id, strings.NewReader(xml))
				if err != nil {
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return // daemon died mid-request: this PUT was never acked
				}
				code := resp.StatusCode
				resp.Body.Close()
				if code >= 300 {
					return
				}
				mu.Lock()
				ackedPuts = append(ackedPuts, acked{id: id, version: v, want: xml})
				mu.Unlock()
			}
		}(w)
	}

	// No quarter: the process dies between one instruction and the next,
	// while the writers above are mid-flight.
	time.Sleep(150 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	wg.Wait()
	if len(ackedPuts) == 0 {
		t.Fatal("no concurrent PUT was acknowledged before the kill")
	}

	// Everything acknowledged must come back from the segment logs alone
	// (no checkpoint ever ran).
	st, err := vstore.Open(dir, diff.Options{}, vstore.Config{})
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	defer st.Close()
	if got := st.Versions("catalog"); got != len(versions) {
		t.Fatalf("catalog has %d versions after SIGKILL, want %d", got, len(versions))
	}
	for i, want := range served {
		doc, err := st.Version("catalog", i+1)
		if err != nil {
			t.Fatalf("reconstruct version %d: %v", i+1, err)
		}
		if got := doc.String(); got != want {
			t.Errorf("version %d differs after SIGKILL:\n got %q\nwant %q", i+1, got, want)
		}
	}
	if got := st.Versions("other"); got != 1 {
		t.Errorf("other has %d versions, want 1", got)
	}
	for _, a := range ackedPuts {
		doc, err := st.Version(a.id, a.version)
		if err != nil {
			t.Errorf("acknowledged %s v%d lost after SIGKILL: %v", a.id, a.version, err)
			continue
		}
		if got := doc.String(); got != a.want {
			t.Errorf("%s v%d differs after SIGKILL:\n got %q\nwant %q", a.id, a.version, got, a.want)
		}
	}
	rec := st.RecoveryStats()
	if want := len(versions) + 1 + len(ackedPuts); rec.JournalRecords < want {
		t.Errorf("replayed %d segment records, want at least %d", rec.JournalRecords, want)
	}
	if rec.SnapshotVersions != 0 {
		t.Errorf("recovery found %d snapshot versions, want 0 (no checkpoint ran)", rec.SnapshotVersions)
	}
}

// TestRunRefusesBadFlags: a negative value of a kept flag, or a
// -crawl-max that is not above the -crawl-min in effect, stops run with
// an error naming the flag, before it listens and before it creates
// the data directory.
func TestRunRefusesBadFlags(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a run that gets past its checks shuts down at once
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-timeout", "-1s"}, "-timeout"},
		{[]string{"-max-body", "-1"}, "-max-body"},
		{[]string{"-version-cache", "-5"}, "-version-cache"},
		{[]string{"-crawl-min", "-1s"}, "-crawl-min"},
		{[]string{"-crawl-max", "-1s"}, "-crawl-max"},
		{[]string{"-scrub-interval", "-1m"}, "-scrub-interval"},
		{[]string{"-crawl-min", "30m", "-crawl-max", "10m"}, "-crawl-max"},
		{[]string{"-crawl-min", "1m", "-crawl-max", "1m"}, "-crawl-max"},
		{[]string{"-crawl-max", "5s"}, "-crawl-max"},
		{[]string{"-crawl-min", "2h"}, "-crawl-max"},
	} {
		name := strings.Join(tc.args, " ")
		dir := filepath.Join(t.TempDir(), "data")
		var cfg config
		if err := newFlagSet(&cfg).Parse(append([]string{"-addr", "127.0.0.1:0", "-dir", dir}, tc.args...)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.logger, cfg.server.Logger = quiet, quiet
		err := run(ctx, cfg, func(string) { t.Errorf("%s: daemon listened", name) })
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("%s: run = %v, want an error naming %s", name, err, tc.flag)
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: data directory touched (stat: %v)", name, err)
		}
	}
	for _, ok := range []config{{}, {crawlMin: 30 * time.Minute, crawlMax: 2 * time.Hour}, {crawlMax: 16 * time.Second}} {
		if err := ok.check(); err != nil {
			t.Errorf("check(min %v, max %v) = %v, want nil", ok.crawlMin, ok.crawlMax, err)
		}
	}
}

var (
	// usageFlag matches a flag at the head of a line of the package
	// comment's usage block; readmeFlag, a row of README's flag table.
	usageFlag  = regexp.MustCompile(`(?m)^//\t(-[a-z-]+)`)
	readmeFlag = regexp.MustCompile("(?m)^\\| `(-[a-z-]+)`")
)

// TestFlagsDocumented: the flags newFlagSet registers are exactly the
// ones the package comment's usage block and README's daemon flag
// table name, so a flag cannot come or go without its documentation.
func TestFlagsDocumented(t *testing.T) {
	var want []string
	newFlagSet(&config{}).VisitAll(func(f *flag.Flag) { want = append(want, "-"+f.Name) })

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	if got := matches(usageFlag, doc); !slices.Equal(got, want) {
		t.Errorf("usage block names %v; newFlagSet registers %v", got, want)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "\n### `xydiffd` flags\n")
	if !ok {
		t.Fatal("README.md has no \"### `xydiffd` flags\" section")
	}
	table, _, _ = strings.Cut(table, "\n#")
	if got := matches(readmeFlag, table); !slices.Equal(got, want) {
		t.Errorf("README's flag table names %v; newFlagSet registers %v", got, want)
	}
}

// matches returns re's first submatches in s, sorted.
func matches(re *regexp.Regexp, s string) []string {
	var out []string
	for _, m := range re.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	slices.Sort(out)
	return out
}
