package scrub

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Every write-ahead log in this repo — the sharded segment logs, and
// the per-document journals of the old layout that migration reads —
// shares one frame: a length-prefixed, CRC32-C-checksummed payload,
// integers big-endian:
//
//	+0  uint32  payload length
//	+4  uint32  CRC32-C (Castagnoli) of the payload
//	+8  payload
//
// WalkLog verifies that frame, so recovery, the scrubber and the
// migration reader walk logs through one piece of code.

const (
	// headerLen is the fixed frame header: length + checksum.
	headerLen = 8
	// maxRecordLen bounds one record; a length field beyond it is
	// corruption, not a legitimately huge record (a random length from
	// zeroed or flipped bytes would otherwise make a walk read
	// gigabytes).
	maxRecordLen = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Damage describes the first verification failure in a log file.
type Damage struct {
	// Offset is where the bad record's header starts.
	Offset int64
	// Reason says which check failed.
	Reason string
	// Torn is true when the failure is consistent with a crash mid-
	// append: the final record simply stops early. Torn tails are
	// legitimate in an *active* log (recovery truncates them) but are
	// corruption in a sealed one, so the caller decides.
	Torn bool
}

func (d *Damage) Error() string {
	return fmt.Sprintf("offset %d: %s", d.Offset, d.Reason)
}

// WalkLog verifies every CRC-framed record in data, calling visit (if
// non-nil) with each verified payload and its header offset. It stops
// at the first failure and returns it; nil means the whole log
// verified. A visit error is reported as damage at that record — the
// caller's payload decoder is part of verification.
func WalkLog(data []byte, visit func(off int64, payload []byte) error) *Damage {
	off := int64(0)
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < headerLen {
			return &Damage{Offset: off, Reason: fmt.Sprintf("torn header: %d trailing bytes", len(rest)), Torn: true}
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		if n == 0 || n > maxRecordLen {
			return &Damage{Offset: off, Reason: fmt.Sprintf("implausible record length %d", n)}
		}
		if uint64(len(rest)) < headerLen+uint64(n) {
			return &Damage{Offset: off, Reason: fmt.Sprintf("torn record: %d byte payload, %d on disk", n, len(rest)-headerLen), Torn: true}
		}
		payload := rest[headerLen : headerLen+int(n)]
		if sum := crc32.Checksum(payload, castagnoli); sum != binary.BigEndian.Uint32(rest[4:8]) {
			return &Damage{Offset: off, Reason: "checksum mismatch"}
		}
		if visit != nil {
			if err := visit(off, payload); err != nil {
				return &Damage{Offset: off, Reason: err.Error()}
			}
		}
		off += headerLen + int64(n)
	}
	return nil
}

// Checksum is the CRC32-C of b, exposed so snapshot sum files and
// their verifiers share the walker's polynomial.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// QuarantineSuffix marks files set aside by the scrubber. Quarantined
// files are renamed, never deleted — an operator (or a smarter future
// repair) can still inspect the bytes.
const QuarantineSuffix = ".quarantine"

// RenameFS is the slice of filesystem the quarantine path needs;
// faultfs.FS satisfies it.
type RenameFS interface {
	Rename(oldPath, newPath string) error
	Stat(path string) (os.FileInfo, error)
}

// Quarantine renames path aside with QuarantineSuffix and returns the
// new name. If that name is already taken (a file quarantined twice
// across restarts), numbered suffixes are tried.
func Quarantine(fsys RenameFS, path string) (string, error) {
	dst := path + QuarantineSuffix
	for i := 1; ; i++ {
		if _, err := fsys.Stat(dst); err != nil {
			break
		}
		if i > 1000 {
			return "", fmt.Errorf("quarantine %s: too many existing quarantine files", path)
		}
		dst = fmt.Sprintf("%s%s.%d", path, QuarantineSuffix, i)
	}
	if err := fsys.Rename(path, dst); err != nil {
		return "", fmt.Errorf("quarantine %s: %w", path, err)
	}
	return dst, nil
}
