package service

import (
	"container/list"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Entry is one cached run: the canonical report bytes served verbatim to
// every later request for the same fingerprint, and the recorded trace
// when the run was submitted with recording on.
type Entry struct {
	Report []byte
	Trace  []byte
}

// Cache is the server's two-level content-addressed result store:
// fingerprint → Entry.
//
// Level 1 is an in-memory LRU bounded by the entry capacity; level 2,
// enabled by a non-empty directory, is a disk tier written through on
// every Put (atomic create-then-rename, so a crash never leaves a
// torn entry) and consulted on memory misses — an entry evicted from
// memory, or stored by a previous process, is promoted back into the
// LRU when next requested. Results are immutable once stored (a
// fingerprint names a deterministic run), so neither tier ever updates
// a report in place and the disk tier needs no invalidation; the only
// amendment allowed is attaching a recorded trace to an entry that
// lacked one.
type Cache struct {
	mu    sync.Mutex
	cap   int
	dir   string     // "" = memory only
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions, diskHits int64
}

type lruItem struct {
	key string
	e   Entry
}

// NewCache builds a cache bounded to capacity in-memory entries, with a
// disk tier under dir when dir is non-empty (the directory is created
// on first use).
func NewCache(capacity int, dir string) *Cache {
	return &Cache{
		cap:   capacity,
		dir:   dir,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// CacheStats is the counter snapshot healthz serves. Hits and Misses
// count submissions (dedup outcomes), not lookups; Evictions counts
// memory-tier evictions (write-through entries stay on disk); DiskHits
// counts memory misses satisfied by the disk tier.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	DiskHits  int64 `json:"disk_hits"`
}

// Peek returns the entry without touching the hit/miss statistics.
// Lookups never count implicitly: the submission path calls MarkHit or
// MarkMiss once per submission after deciding the outcome, so the
// statistics measure exactly how often a submitted experiment was
// deduplicated (served from cache or joined to a live run) versus
// simulated fresh — not how often a client polled. A memory hit
// refreshes the entry's LRU recency; a disk hit promotes the entry
// back into memory.
func (c *Cache) Peek(fp string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruItem).e, true
	}
	if c.dir == "" {
		return Entry{}, false
	}
	e, ok := c.readDisk(fp)
	if !ok {
		return Entry{}, false
	}
	c.diskHits++
	c.insertLocked(fp, e)
	return e, true
}

// MarkHit records one deduplicated submission.
func (c *Cache) MarkHit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

// MarkMiss records one submission that required a fresh simulation.
func (c *Cache) MarkMiss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// Put stores a completed run in both tiers. A duplicate fingerprint
// keeps the first stored report bytes authoritative — concurrent
// completions of the same config can never flip the served
// representation — but may attach a recorded trace the original entry
// lacked (a record=true re-run of an already-cached config exists
// exactly to produce that trace). Disk writes are best-effort: an
// unwritable directory degrades the cache to memory-only rather than
// failing the run that produced the result.
func (c *Cache) Put(fp string, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		old := el.Value.(*lruItem)
		if old.e.Trace == nil && e.Trace != nil {
			old.e.Trace = e.Trace
			c.writeDisk(fp, Entry{Report: old.e.Report, Trace: e.Trace})
		}
		return
	}
	// The entry may live only on disk (evicted, or written by another
	// process). Keep its report bytes authoritative; attach the trace.
	if disk, ok := c.readDisk(fp); ok {
		if disk.Trace == nil && e.Trace != nil {
			disk.Trace = e.Trace
			c.writeDisk(fp, disk)
		}
		c.insertLocked(fp, disk)
		return
	}
	c.insertLocked(fp, e)
	c.writeDisk(fp, e)
}

// insertLocked adds an entry to the memory LRU, evicting from the cold
// end past the capacity bound. Callers hold c.mu.
func (c *Cache) insertLocked(fp string, e Entry) {
	for c.cap > 0 && c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
		c.evictions++
	}
	c.items[fp] = c.ll.PushFront(&lruItem{key: fp, e: e})
}

// Stats returns the counter snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		DiskHits:  c.diskHits,
	}
}

// Disk-tier layout: one <hex>.report file per fingerprint (the exact
// canonical bytes) plus an optional <hex>.trace sibling. The hex name
// is the fingerprint with its "sha256:" prefix stripped, which keeps
// names filesystem-safe without any escaping.
const (
	fpPrefix    = "sha256:"
	reportExt   = ".report"
	traceExt    = ".trace"
	hexKeyChars = 64
)

// diskName maps a fingerprint to its disk base name, or "" when the
// fingerprint is not of the canonical shape (defense against a crafted
// id reaching the filesystem through a lookup path).
func diskName(fp string) string {
	hex, ok := strings.CutPrefix(fp, fpPrefix)
	if !ok || !validHex(hex) {
		return ""
	}
	return hex
}

func validHex(s string) bool {
	if len(s) != hexKeyChars {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// readDisk loads an entry from the disk tier. Callers hold c.mu (the
// files are small and local; holding the lock keeps promotion and the
// counters consistent).
func (c *Cache) readDisk(fp string) (Entry, bool) {
	name := diskName(fp)
	if c.dir == "" || name == "" {
		return Entry{}, false
	}
	report, err := os.ReadFile(filepath.Join(c.dir, name+reportExt))
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Report: report}
	if trace, err := os.ReadFile(filepath.Join(c.dir, name+traceExt)); err == nil {
		e.Trace = trace
	}
	return e, true
}

// writeDisk spills an entry to the disk tier atomically: each file is
// written to a temp name in the same directory and renamed into place,
// so readers (including other processes sharing the directory) never
// observe a torn entry. Callers hold c.mu.
func (c *Cache) writeDisk(fp string, e Entry) {
	name := diskName(fp)
	if c.dir == "" || name == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	atomicWrite(filepath.Join(c.dir, name+reportExt), e.Report)
	if e.Trace != nil {
		atomicWrite(filepath.Join(c.dir, name+traceExt), e.Trace)
	}
}

func atomicWrite(path string, data []byte) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return
	}
	if err := tmp.Close(); err != nil {
		return
	}
	os.Rename(tmp.Name(), path)
}

// Preload walks the disk tier and promotes entries into the memory LRU
// until it is full, returning how many were loaded (already-resident
// fingerprints are skipped, not double counted). Files are visited in
// sorted name order so a preload is deterministic. It is the warm-up
// behind POST /v1/cache/preload: a freshly restarted server can pull
// its whole previous working set back into memory before traffic
// arrives.
func (c *Cache) Preload() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dir == "" {
		return 0, nil
	}
	names, err := os.ReadDir(c.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil // an empty tier, not a failure
		}
		return 0, err
	}
	loaded := 0
	for _, d := range names { // ReadDir returns sorted names
		base, isReport := strings.CutSuffix(d.Name(), reportExt)
		if !isReport || !validHex(base) {
			continue
		}
		if c.cap > 0 && c.ll.Len() >= c.cap {
			break
		}
		fp := fpPrefix + base
		if _, resident := c.items[fp]; resident {
			continue
		}
		e, ok := c.readDisk(fp)
		if !ok {
			continue
		}
		c.insertLocked(fp, e)
		loaded++
	}
	return loaded, nil
}
