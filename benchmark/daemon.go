package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"xydiff/internal/diff"
	"xydiff/internal/faultfs"
	"xydiff/internal/server"
	"xydiff/internal/store"
	"xydiff/internal/vstore"
)

// nosyncFS is the real filesystem with fsync turned into a no-op. The
// engine still runs its SyncAlways path — every Put waits for its
// batch's Sync call, and the engine counts it — but the latency of the
// device under the checkout, which belongs to the host and not to the
// program, stays out of every timing. The flush count is reported
// instead.
type nosyncFS struct{ faultfs.OS }

type nosyncFile struct{ faultfs.File }

func (nosyncFile) Sync() error { return nil }

func (fs nosyncFS) OpenFile(path string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.OS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return nosyncFile{f}, nil
}

func (fs nosyncFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := fs.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return nosyncFile{f}, nil
}

// openStore opens dir the way xydiffd does for this workload: the
// daemon's defaults (16 shards, SyncAlways, -diff-workers 1) and the
// workload's -version-cache.
func openStore(dir string, w *workload) (*vstore.Store, error) {
	return vstore.Open(dir, diff.Options{Workers: 1}, vstore.Config{
		Sync:      store.SyncAlways,
		CacheSize: w.cache,
		FS:        nosyncFS{},
	})
}

// daemon is an in-process xydiffd behind a real loopback listener.
type daemon struct {
	st   *vstore.Store
	srv  *server.Server
	hs   *http.Server
	errc chan error
	base string
}

func startDaemon(dir string, w *workload) (*daemon, error) {
	d := &daemon{errc: make(chan error, 1)}
	st, err := openStore(dir, w)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	d.st = st
	d.srv = server.New(st, server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		_ = st.Close() // the listen error is the one to report
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{
		Handler:           d.srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return context.Background() },
	}
	go func() { d.errc <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down in xydiffd's order: listener closed and
// requests drained, diff pool drained, store checkpointed and closed.
// It returns once the serving goroutine has exited.
func (d *daemon) stop(ctx context.Context) error {
	shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(shutCtx)
	if err != nil {
		err = errors.Join(err, d.hs.Close())
	}
	if serr := <-d.errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.srv.Close()
	if cerr := d.st.Checkpoint(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("checkpoint: %w", cerr))
	}
	if cerr := d.st.Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("close store: %w", cerr))
	}
	return err
}
