// Snapshot persistence: the crash-recovery layer that lets a restarted
// bufferd warm-start its LRU from disk instead of re-solving its whole
// key shard (DESIGN.md §15).
//
// File layout (version 1, all integers little-endian):
//
//	offset  size  field
//	0       8     magic "BUFSNAP1"
//	8       4     format version (uint32, currently 1)
//	12      4     entry count (uint32)
//	16      ...   entries, LRU first: uint32 key length, key bytes,
//	              uint32 value length, value bytes
//	end-32  32    SHA-256 over everything before it
//
// The checksum is verified before any field past the magic is trusted, so
// a torn write, a flipped bit, or a partial download reads as one clean
// rejection — never a panic, never a partially-loaded cache. Version skew
// (a future format) is likewise rejected whole. Value bytes are opaque to
// this layer; the caller's decode callback gets the entry key alongside
// them so it can re-validate content-addressed values against the key
// they claim to answer (core.DecodeSolveResult does exactly that).
package cache

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"buffopt/internal/enc"
	"buffopt/internal/obs"
)

const (
	snapshotMagic   = "BUFSNAP1"
	snapshotVersion = 1
	// snapshotOverhead is the fixed part of the file: magic, version,
	// count, trailing checksum.
	snapshotOverhead = len(snapshotMagic) + 4 + 4 + sha256.Size
)

// ErrSnapshotInvalid wraps every decode rejection, so callers can treat
// "corrupt file" uniformly regardless of which check tripped.
var ErrSnapshotInvalid = errors.New("cache: invalid snapshot")

// EncodeSnapshot serializes entries into the snapshot format. Entries
// whose value refuses to encode (encode returns an error) are skipped and
// counted in the second return — snapshotting is best-effort per entry
// but exact per file.
func EncodeSnapshot[V any](entries []Entry[V], encode func(key string, v V) ([]byte, error)) (data []byte, skipped int) {
	var body []byte
	for _, e := range entries {
		b, err := encode(e.Key, e.Val)
		if err != nil {
			skipped++
			continue
		}
		body = enc.Field(enc.Field(body, e.Key), b)
	}
	buf := make([]byte, 0, snapshotOverhead+len(body))
	buf = append(buf, snapshotMagic...)
	buf = enc.U32(buf, snapshotVersion)
	buf = enc.U32(buf, uint32(len(entries)-skipped))
	buf = append(buf, body...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), skipped
}

// DecodeSnapshot parses data produced by EncodeSnapshot and decodes every
// value through decode. It is all-or-nothing: any corruption — bad magic,
// checksum mismatch, version skew, truncation, trailing garbage, or a
// value that fails to decode or re-validate — rejects the whole snapshot
// with an error wrapping ErrSnapshotInvalid. A rejected snapshot must
// yield a clean cold start, so no partially-decoded entry set is ever
// returned.
func DecodeSnapshot[V any](data []byte, decode func(key string, val []byte) (V, error)) ([]Entry[V], error) {
	if len(data) < snapshotOverhead {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte envelope",
			ErrSnapshotInvalid, len(data), snapshotOverhead)
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotInvalid)
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotInvalid)
	}
	r := enc.NewReader(body[len(snapshotMagic):])
	if version := r.U32(); version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrSnapshotInvalid, version, snapshotVersion)
	}
	count := int(r.U32())
	// Each entry costs at least its two length prefixes.
	if count > r.Len()/8 {
		return nil, fmt.Errorf("%w: entry count %d exceeds input size", ErrSnapshotInvalid, count)
	}
	entries := make([]Entry[V], 0, count)
	for i := 0; i < count; i++ {
		key := string(r.Field())
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: entry %d key: %w", ErrSnapshotInvalid, i, r.Err())
		}
		val := r.Field()
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: entry %d value: %w", ErrSnapshotInvalid, i, r.Err())
		}
		v, err := decode(key, val)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d (%q): %w", ErrSnapshotInvalid, i, key, err)
		}
		entries = append(entries, Entry[V]{Key: key, Val: v})
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d entries", ErrSnapshotInvalid, r.Len(), count)
	}
	return entries, nil
}

// SaveSnapshot writes the cache's resident entries to path atomically:
// the bytes are staged in a temp file in path's directory and renamed
// into place, so a crash mid-save leaves the previous snapshot intact and
// readers never observe a torn file through the rename. Returns how many
// entries were written and how many were skipped by the encoder. Counted
// under "<ns>.snapshot.saves" / ".snapshot.save_errors".
func (c *Cache[V]) SaveSnapshot(path string, encode func(key string, v V) ([]byte, error)) (saved, skipped int, err error) {
	entries := c.Entries()
	data, skipped := EncodeSnapshot(entries, encode)
	if err := writeFileAtomic(path, data); err != nil {
		obs.Inc(c.ns + "snapshot.save_errors")
		return 0, skipped, err
	}
	obs.Inc(c.ns + "snapshot.saves")
	return len(entries) - skipped, skipped, nil
}

// LoadSnapshot restores entries from the snapshot at path. Outcomes are
// mutually exclusive and each counted exactly once, which is what lets
// the restart soak close the "loaded + rejected == restarts" ledger:
//
//   - "<ns>.snapshot.loaded": the file verified and every entry was
//     re-inserted (returns the entry count, nil error);
//   - "<ns>.snapshot.rejected": the file exists but failed any check —
//     the cache is left untouched (cold) and the error says why;
//   - "<ns>.snapshot.absent": no file at path; a normal cold start
//     (returns 0, nil).
//
// Entries replay through Put oldest-first, restoring LRU order and
// re-applying the configured bounds.
func (c *Cache[V]) LoadSnapshot(path string, decode func(key string, val []byte) (V, error)) (int, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		obs.Inc(c.ns + "snapshot.absent")
		return 0, nil
	}
	if err != nil {
		obs.Inc(c.ns + "snapshot.rejected")
		return 0, err
	}
	entries, err := DecodeSnapshot(data, decode)
	if err != nil {
		obs.Inc(c.ns + "snapshot.rejected")
		return 0, err
	}
	for _, e := range entries {
		c.Put(e.Key, e.Val)
	}
	obs.Inc(c.ns + "snapshot.loaded")
	obs.Add(c.ns+"snapshot.entries_loaded", int64(len(entries)))
	return len(entries), nil
}

// writeFileAtomic stages data in a same-directory temp file, syncs it,
// and renames it over path.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
