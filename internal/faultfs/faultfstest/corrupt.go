package faultfstest

import (
	"fmt"
	"os"

	"xydiff/internal/faultfs"
)

// Deterministic at-rest corruption injectors for the bit-rot chaos
// harness. Unlike the Fault rules — which model syscalls failing while
// the store is running — these mutate bytes already durable on disk,
// the way a decaying sector or a buggy firmware write does: the store
// saw every write succeed, yet what it reads back later differs. Tests
// point them at a closed (or at least quiesced) store and then assert
// the scrubber finds exactly this damage.

// FlipBit inverts one bit of the file at path: bit 0–7 of the byte at
// off. Offsets may be negative to count from the end (-1 is the last
// byte).
func FlipBit(fsys faultfs.FS, path string, off int64, bit uint) error {
	if bit > 7 {
		return fmt.Errorf("faultfs: flip bit %d: bit index out of range", bit)
	}
	return mutate(fsys, path, func(b []byte) error {
		i, err := resolve(off, len(b))
		if err != nil {
			return err
		}
		b[i] ^= 1 << bit
		return nil
	})
}

// ZeroRange overwrites n bytes starting at off with zeros — a hole a
// failed flush or a remapped sector leaves. off may be negative to
// count from the end.
func ZeroRange(fsys faultfs.FS, path string, off, n int64) error {
	return mutate(fsys, path, func(b []byte) error {
		i, err := resolve(off, len(b))
		if err != nil {
			return err
		}
		if n < 0 || i+n > int64(len(b)) {
			return fmt.Errorf("faultfs: zero range [%d,%d) beyond %d-byte file", i, i+n, len(b))
		}
		for j := i; j < i+n; j++ {
			b[j] = 0
		}
		return nil
	})
}

// TruncateTail cuts the last n bytes off the file — the torn-write
// shape, but injected after the fact into an already-sealed file.
func TruncateTail(fsys faultfs.FS, path string, n int64) error {
	fi, err := fsys.Stat(path)
	if err != nil {
		return fmt.Errorf("faultfs: truncate tail: %w", err)
	}
	size := fi.Size() - n
	if size < 0 {
		size = 0
	}
	return fsys.Truncate(path, size)
}

func resolve(off int64, size int) (int64, error) {
	if off < 0 {
		off += int64(size)
	}
	if off < 0 || off >= int64(size) {
		return 0, fmt.Errorf("faultfs: offset %d beyond %d-byte file", off, size)
	}
	return off, nil
}

// mutate rewrites path in place with fn applied to its bytes. The
// write is deliberately NOT atomic (no temp+rename): corruption does
// not announce itself with a fresh inode.
func mutate(fsys faultfs.FS, path string, fn func([]byte) error) error {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return fmt.Errorf("faultfs: corrupt %s: %w", path, err)
	}
	if err := fn(b); err != nil {
		return fmt.Errorf("faultfs: corrupt %s: %w", path, err)
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("faultfs: corrupt %s: %w", path, err)
	}
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		return fmt.Errorf("faultfs: corrupt %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("faultfs: corrupt %s: %w", path, err)
	}
	return f.Close()
}
