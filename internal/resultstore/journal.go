package resultstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// The index journal `<dir>/index` (see the package comment): a header,
// then one fixed-size record per change to the directory's files.
const (
	journalName    = "index"
	journalMagic   = "SLRI"
	journalVersion = 1
	journalHdrLen  = 4 + 4 // magic, version
	// A record is op, three zero bytes, the key, the size (little-endian)
	// and a CRC-32C of the 28 bytes before it.
	recLen = 1 + 3 + 16 + 8 + 4
)

// journalOp is what a record says happened at its key. Live entries and
// quarantine files are tracked apart because one key can have both (an
// entry re-written after its old file was quarantined).
type journalOp byte

const (
	opPut        journalOp = iota + 1 // a live envelope of size bytes sits at the key's path
	opDrop                            // the key's live envelope is gone
	opQuarantine                      // a quarantine file of size bytes sits at the key's path + ".corrupt"
	opPurge                           // the key's quarantine file is gone
)

type journalRecord struct {
	op   journalOp
	key  Key
	size int64 // 0 for opDrop and opPurge
}

// appendRecord appends r's encoding to b.
func appendRecord(b []byte, r journalRecord) []byte {
	var rec [recLen]byte
	rec[0] = byte(r.op)
	copy(rec[4:20], r.key[:])
	binary.LittleEndian.PutUint64(rec[20:28], uint64(r.size))
	binary.LittleEndian.PutUint32(rec[28:], crc32.Checksum(rec[:28], castagnoli()))
	return append(b, rec[:]...)
}

// appendJournalHeader appends the journal header to b.
func appendJournalHeader(b []byte) []byte {
	b = append(b, journalMagic...)
	return binary.LittleEndian.AppendUint32(b, journalVersion)
}

// parseJournal decodes a whole journal. Any defect — a foreign header, a
// torn last record, a checksum mismatch, an unknown op, nonzero padding or
// an impossible size — rejects the journal as a whole, so every journal it
// accepts is exactly the encoding of the records it returns.
func parseJournal(raw []byte) ([]journalRecord, error) {
	if len(raw) < journalHdrLen {
		return nil, fmt.Errorf("short journal header: %d bytes", len(raw))
	}
	if string(raw[:4]) != journalMagic {
		return nil, fmt.Errorf("bad journal magic %q", raw[:4])
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != journalVersion {
		return nil, fmt.Errorf("journal version %d, want %d", v, journalVersion)
	}
	body := raw[journalHdrLen:]
	if len(body)%recLen != 0 {
		return nil, fmt.Errorf("torn journal record: %d trailing bytes", len(body)%recLen)
	}
	recs := make([]journalRecord, 0, len(body)/recLen)
	for off := 0; off < len(body); off += recLen {
		rec := body[off : off+recLen]
		if crc32.Checksum(rec[:28], castagnoli()) != binary.LittleEndian.Uint32(rec[28:]) {
			return nil, fmt.Errorf("journal record %d: checksum mismatch", off/recLen)
		}
		r := journalRecord{op: journalOp(rec[0]), size: int64(binary.LittleEndian.Uint64(rec[20:28]))}
		copy(r.key[:], rec[4:20])
		switch {
		case r.op < opPut || r.op > opPurge:
			return nil, fmt.Errorf("journal record %d: unknown op %d", off/recLen, r.op)
		case rec[1]|rec[2]|rec[3] != 0:
			return nil, fmt.Errorf("journal record %d: nonzero padding", off/recLen)
		case r.size < 0, (r.op == opDrop || r.op == opPurge) && r.size != 0:
			return nil, fmt.Errorf("journal record %d: size %d for op %d", off/recLen, r.size, r.op)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// journalPath is the store's index journal.
func (s *Store) journalPath() string { return filepath.Join(s.dir, journalName) }

// apply replays one record into the index. Only Open calls it, before the
// store is shared, so it takes no lock.
func (s *Store) apply(r journalRecord) {
	sh := &s.shards[r.key[0]]
	switch r.op {
	case opPut:
		s.setDiskLocked(sh, r.key, diskEntry{size: r.size})
	case opDrop:
		s.dropDiskLocked(sh, r.key)
	case opQuarantine:
		s.noteCorruptLocked(sh, r.key, r.size)
	case opPurge:
		s.dropCorruptLocked(sh, r.key)
	}
}

// loadJournal indexes the store from its journal and reports whether it
// could. It cannot when the journal is missing or invalid, or when it holds
// more than twice as many records as the files it indexes, plus 1024; the
// index is then left empty for rebuildIndex, which also compacts the
// journal.
func (s *Store) loadJournal() bool {
	raw, err := os.ReadFile(s.journalPath())
	return err == nil && s.replay(raw)
}

// replay is loadJournal on the journal's bytes.
func (s *Store) replay(raw []byte) bool {
	recs, err := parseJournal(raw)
	if err != nil {
		return false
	}
	for _, r := range recs {
		s.apply(r)
	}
	if live := s.entries.Load() + s.corruptEntries.Load(); int64(len(recs)) > 2*live+1024 {
		s.resetIndex()
		return false
	}
	return true
}

// journal appends recs to the journal in one write. The caller has just
// made the change they describe and holds the shard lock of their key.
// Each append opens the journal by name, so it lands in whatever journal
// the directory holds now, even one another process rebuilt. It never
// creates one: a missing journal means the next Open rebuilds anyway. A
// failed append removes the journal, so the next Open rebuilds the index
// from the directory rather than trust a journal that may lack or tear
// this record.
func (s *Store) journal(recs ...journalRecord) {
	var buf [2 * recLen]byte
	b := buf[:0]
	for _, r := range recs {
		b = appendRecord(b, r)
	}
	f, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(s.journalPath())
	}
}

// rebuildIndex indexes the store by walking every shard directory, then
// writes a fresh journal of what it found. Stale temp files from crashed writers are
// removed, and quarantine files indexed. The journal is written through a
// temp file and a rename; if that fails the store still opens, and the
// next Open walks again.
func (s *Store) rebuildIndex() error {
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch filepath.Ext(path) {
		case ".tmp":
			os.Remove(path) // a writer died mid-Put; the rename never happened
		case ".corrupt":
			// Quarantined entries stay for post-mortems and can never be
			// served, but their bytes count toward the disk budget.
			key, kerr := ParseKey(strings.TrimSuffix(filepath.Base(path), ".corrupt"))
			if kerr != nil {
				return nil
			}
			info, ierr := d.Info()
			if ierr != nil {
				return nil
			}
			s.noteCorruptLocked(&s.shards[key[0]], key, info.Size())
		default:
			key, kerr := ParseKey(filepath.Base(path))
			if kerr != nil {
				return nil // not an entry name (the journal among them); never serve it
			}
			info, ierr := d.Info()
			if ierr != nil {
				return nil
			}
			sh := &s.shards[key[0]]
			if _, dup := sh.disk[key]; !dup {
				s.setDiskLocked(sh, key, diskEntry{size: info.Size()})
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.writeJournal()
	return nil
}

// writeJournal replaces the journal with one record per indexed file, in
// key order, so a store's rebuilt journal is a function of its files.
func (s *Store) writeJournal() {
	b := appendJournalHeader(make([]byte, 0, journalHdrLen+recLen*int(s.entries.Load()+s.corruptEntries.Load())))
	var keys []Key
	for i := range s.shards {
		sh := &s.shards[i]
		keys = keys[:0]
		for k := range sh.disk {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, compareKeys)
		for _, k := range keys {
			b = appendRecord(b, journalRecord{op: opPut, key: k, size: sh.disk[k].size})
		}
		keys = keys[:0]
		for k := range sh.corrupt {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, compareKeys)
		for _, k := range keys {
			b = appendRecord(b, journalRecord{op: opQuarantine, key: k, size: sh.corrupt[k]})
		}
	}
	tmp, err := os.CreateTemp(s.dir, journalName+"-*.tmp")
	if err != nil {
		return
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.journalPath())
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
}

func compareKeys(a, b Key) int { return bytes.Compare(a[:], b[:]) }
