package bufpool

import (
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// The spill file is the cold half of beyond-RAM base storage: sealed and
// merged base pages are appended in their page.MarshalEncoded form and read
// back on a pool miss. The file is strictly append-only — a descriptor, once
// handed out, names immutable bytes forever — which is what lets checkpoint
// images reference spilled pages by descriptor and lets late readers of an
// old version re-pin a page whose in-memory copy was already retired.

// Desc locates one spilled page frame: the byte range holding its
// page.MarshalEncoded payload and the payload's CRC. A descriptor is
// self-verifying: ReadAt checks length and CRC, so a torn frame, a
// bit-flipped device, or a descriptor paired with the wrong spill file all
// fail loudly instead of installing a malformed page.
type Desc struct {
	Off int64
	Len uint32
	CRC uint32
}

// SpillSink is the storage behind a Pool: append-only page frames addressed
// by descriptor. Append and ReadAt may be called concurrently; Sync makes
// every previously appended frame durable (a checkpoint that references
// spilled pages by descriptor syncs first, so the descriptors never point at
// bytes the crash discarded).
type SpillSink interface {
	Append(payload []byte) (Desc, error)
	ReadAt(d Desc) ([]byte, error)
	Sync() error
}

// crcOf is the frame checksum (IEEE, matching the WAL's frame CRCs).
func crcOf(p []byte) uint32 { return crc32.ChecksumIEEE(p) }

// checkDesc validates a frame read back for d.
func checkDesc(d Desc, p []byte) error {
	if uint32(len(p)) != d.Len {
		return fmt.Errorf("bufpool: spill frame at %d: read %d bytes, descriptor says %d", d.Off, len(p), d.Len)
	}
	if c := crcOf(p); c != d.CRC {
		return fmt.Errorf("bufpool: spill frame at %d: CRC %08x, descriptor says %08x (torn frame or wrong spill file)", d.Off, c, d.CRC)
	}
	return nil
}

// ---------------------------------------------------------------------------
// File-backed spill

// FileSpill is a file-backed SpillSink. The file is append-only: reopening
// an existing file positions new appends after the bytes already there, so
// descriptors recorded by an earlier process (e.g. in a checkpoint image)
// keep naming the same bytes. Sync fsyncs the file; like the WAL sink, a
// failed fsync must be treated as poisoning everything not yet acknowledged —
// the store reacts by failing the checkpoint round that asked for it.
type FileSpill struct {
	mu sync.Mutex
	// f's appends serialize on mu; ReadAt bypasses it (os.File.ReadAt is
	// safe under concurrent appends, and reads never touch size).
	f    *os.File
	size int64 // guarded by mu; next append offset
}

// OpenFileSpill opens (creating if absent) the spill file at path.
func OpenFileSpill(path string) (*FileSpill, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bufpool: spill file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("bufpool: spill file: %w", err)
	}
	return &FileSpill{f: f, size: st.Size()}, nil
}

// Append writes payload at the end of the file and returns its descriptor.
// A short or failed write leaves a dead gap (the next append overwrites from
// the recorded size), never a descriptor to partial bytes.
func (s *FileSpill) Append(payload []byte) (Desc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	off := s.size
	n, err := s.f.WriteAt(payload, off)
	if err != nil {
		return Desc{}, fmt.Errorf("bufpool: spill append: %w", err)
	}
	if n != len(payload) {
		return Desc{}, fmt.Errorf("bufpool: spill append: short write %d of %d", n, len(payload))
	}
	s.size = off + int64(n)
	return Desc{Off: off, Len: uint32(len(payload)), CRC: crcOf(payload)}, nil
}

// ReadAt reads the frame d names and verifies it against the descriptor.
func (s *FileSpill) ReadAt(d Desc) ([]byte, error) {
	buf := make([]byte, d.Len)
	n, err := s.f.ReadAt(buf, d.Off)
	if err != nil {
		return nil, fmt.Errorf("bufpool: spill read at %d: %w", d.Off, err)
	}
	if err := checkDesc(d, buf[:n]); err != nil {
		return nil, err
	}
	return buf, nil
}

// Sync makes every appended frame durable.
func (s *FileSpill) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("bufpool: spill sync: %w", err)
	}
	return nil
}

// Size returns the spill file's logical size in bytes.
func (s *FileSpill) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Close closes the underlying file.
func (s *FileSpill) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// ---------------------------------------------------------------------------
// In-memory spill (tests, torture suite)

// MemSpill is an in-memory SpillSink modelling a durable spill file: bytes
// appended survive a simulated crash exactly like a WALBuffer's do. The
// failure hooks let tests inject an ENOSPC-style append failure, a failing
// fsync, or frame corruption on the read path (the loud-failure property:
// a corrupt frame must error, never install a malformed page).
type MemSpill struct {
	mu  sync.Mutex
	buf []byte // guarded by mu

	// Hooks, set before use (not synchronized with concurrent operations).
	FailAppend error                  // Append returns this when non-nil
	FailSync   error                  // Sync returns this when non-nil
	Corrupt    func(d Desc, p []byte) // mutates the frame bytes handed to readers
}

// NewMemSpill returns an empty in-memory spill.
func NewMemSpill() *MemSpill { return &MemSpill{} }

// Append stores payload and returns its descriptor.
func (s *MemSpill) Append(payload []byte) (Desc, error) {
	if s.FailAppend != nil {
		return Desc{}, s.FailAppend
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	off := int64(len(s.buf))
	s.buf = append(s.buf, payload...)
	return Desc{Off: off, Len: uint32(len(payload)), CRC: crcOf(payload)}, nil
}

// ReadAt returns a copy of the frame d names, verified against the
// descriptor (after the Corrupt hook, so injected corruption is caught by
// the same CRC check a real torn frame would hit).
func (s *MemSpill) ReadAt(d Desc) ([]byte, error) {
	buf, err := s.copyFrame(d)
	if err != nil {
		return nil, err
	}
	if s.Corrupt != nil {
		s.Corrupt(d, buf)
	}
	if err := checkDesc(d, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// copyFrame copies out the raw bytes d names.
func (s *MemSpill) copyFrame(d Desc) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.Off < 0 || d.Off+int64(d.Len) > int64(len(s.buf)) {
		return nil, fmt.Errorf("bufpool: spill read at %d: beyond end (%d bytes)", d.Off, len(s.buf))
	}
	return append([]byte(nil), s.buf[d.Off:d.Off+int64(d.Len)]...), nil
}

// Sync is a no-op (memory is "durable" in the simulated-crash model).
func (s *MemSpill) Sync() error { return s.FailSync }

// Size returns the number of bytes appended.
func (s *MemSpill) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.buf))
}
