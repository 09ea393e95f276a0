package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultfs"
	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/view"
	"repro/internal/wal"
)

// ErrNoPersistence marks operations (Checkpoint) that need a data dir on an
// engine running without one; callers distinguish it (errors.Is) from
// operational failures of an attached durability layer.
var ErrNoPersistence = errors.New("persistence not enabled (no data dir)")

// ErrDegraded marks mutations rejected because persistent WAL failures have
// flipped the engine into read-only degraded mode: queries keep serving,
// mutations fail fast until a successful checkpoint or Resume re-arms
// writes. Servers map it to HTTP 503.
var ErrDegraded = errors.New("engine degraded: read-only (WAL unavailable)")

// Append retry defaults: a failed WAL append is retried with doubling
// backoff before the engine degrades.
const (
	// DefaultAppendRetries is how many times a failed append is retried.
	DefaultAppendRetries = 2
	// DefaultRetryBackoff is the first retry delay; it doubles per retry.
	DefaultRetryBackoff = 2 * time.Millisecond
	// maxRetryBackoff caps the doubling.
	maxRetryBackoff = 50 * time.Millisecond
)

// Adaptive checkpoint defaults.
const (
	// DefaultReplayNsPerRecord seeds the replay-cost estimate before any
	// recovery has been observed (~25µs/record, a conservative spinning-rust
	// figure).
	DefaultReplayNsPerRecord = 25_000
	// minAdaptiveRecords floors the adaptive trigger so a tiny replay target
	// cannot checkpoint after every record.
	minAdaptiveRecords = 32
)

// PersistOptions configures Engine.Open.
type PersistOptions struct {
	// Fsync is the WAL fsync policy (default wal.FsyncAlways).
	Fsync wal.Policy
	// FsyncInterval is the wal.FsyncInterval period (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes is the WAL rotation threshold (default 64 MiB).
	SegmentBytes int64
	// CheckpointEvery triggers an automatic background checkpoint after this
	// many logged records since the last one. It overrides the adaptive
	// replay-cost policy; ≤ 0 defers to CheckpointReplayTarget (and with
	// both unset, auto-checkpointing is off; manual Checkpoint still works).
	CheckpointEvery int
	// CheckpointReplayTarget is the adaptive policy: checkpoint when the
	// estimated replay cost of the WAL tail (records since last checkpoint ×
	// observed replay ns/record from recovery stats, DefaultReplayNsPerRecord
	// before any recovery) exceeds this duration. ≤ 0 disables.
	CheckpointReplayTarget time.Duration
	// AppendRetries is how many times a failed WAL append is retried with
	// doubling backoff before the engine degrades (default
	// DefaultAppendRetries; negative means no retries).
	AppendRetries int
	// RetryBackoff is the first retry delay (default DefaultRetryBackoff).
	RetryBackoff time.Duration
	// OnDegraded, when set, is called once per healthy→degraded transition
	// with the cause (for logging or a crash-on-degrade policy).
	OnDegraded func(cause error)
	// FS is the filesystem the durability layer performs I/O through; nil
	// means the real filesystem. The torture suite injects faults here.
	FS faultfs.FS
}

// RecoveryStats summarizes what Open recovered, for logs and /healthz.
type RecoveryStats struct {
	// SnapshotLSN is the WAL position of the loaded checkpoint (0: none).
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// RestoredRelations and RestoredViews count the snapshot sections.
	RestoredRelations int `json:"restored_relations"`
	// RestoredViews counts views restored from the snapshot (incremental
	// ones adopt their persisted count stores without recomputation).
	RestoredViews int `json:"restored_views"`
	// ReplayedRecords counts WAL records replayed past the snapshot.
	ReplayedRecords int `json:"replayed_records"`
	// ReplayedMutations counts the tuple-delta records among them — each one
	// re-maintained the registered views incrementally through the normal
	// subscriber path.
	ReplayedMutations int `json:"replayed_mutations"`
	// DurationMs is the wall time of the whole recovery.
	DurationMs float64 `json:"duration_ms"`
	// ReplayNsPerRecord is the observed replay cost (replay wall time /
	// replayed records), feeding the adaptive checkpoint policy; 0 when no
	// records replayed.
	ReplayNsPerRecord float64 `json:"replay_ns_per_record"`
}

// CheckpointInfo summarizes one completed checkpoint.
type CheckpointInfo struct {
	// Snapshot is the committed image file name.
	Snapshot string `json:"snapshot"`
	// AppliedLSN is the WAL position the image reflects.
	AppliedLSN uint64 `json:"applied_lsn"`
	// Relations and Views count the image sections.
	Relations int `json:"relations"`
	// Views counts the checkpointed view states.
	Views int `json:"views"`
	// Bytes is the encoded image size.
	Bytes int `json:"bytes"`
	// DurationMs is the wall time of capture + write + log truncation.
	DurationMs float64 `json:"duration_ms"`
}

// PersistenceStats is the durability section of /healthz.
type PersistenceStats struct {
	// Enabled reports whether the engine runs with a data dir.
	Enabled bool `json:"enabled"`
	// Dir is the data directory.
	Dir string `json:"dir,omitempty"`
	// WAL is the log's point-in-time summary.
	WAL wal.Stats `json:"wal,omitzero"`
	// Checkpoints counts checkpoints since Open.
	Checkpoints uint64 `json:"checkpoints"`
	// LastCheckpointLSN is the applied LSN of the newest checkpoint.
	LastCheckpointLSN uint64 `json:"last_checkpoint_lsn"`
	// LastCheckpointUnix is the Unix time of the newest successful
	// checkpoint in this process (0: none since Open).
	LastCheckpointUnix int64 `json:"last_checkpoint_unix,omitempty"`
	// CheckpointEvery echoes the auto-checkpoint threshold (0: manual only).
	CheckpointEvery int `json:"checkpoint_every"`
	// CheckpointReplayTargetMs echoes the adaptive replay-cost target.
	CheckpointReplayTargetMs float64 `json:"checkpoint_replay_target_ms,omitempty"`
	// CheckpointFailures counts failed checkpoint attempts since Open.
	CheckpointFailures uint64 `json:"checkpoint_failures"`
	// LastCheckpointError is the most recent checkpoint failure (sticky
	// until the next success).
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
	// Degraded reports read-only degraded mode (WAL unavailable).
	Degraded bool `json:"degraded"`
	// DegradedCause is the error that degraded the engine.
	DegradedCause string `json:"degraded_cause,omitempty"`
	// DegradedSince is the RFC3339 time of the degradation.
	DegradedSince string `json:"degraded_since,omitempty"`
	// Recovery is what Open recovered.
	Recovery RecoveryStats `json:"recovery"`
}

// persistence is the engine's durability sink: it owns the WAL, implements
// catalog.Persistence, logs view registrations, and runs checkpoints.
type persistence struct {
	eng  *Engine
	dir  string
	w    *wal.WAL
	opts PersistOptions

	// opMu serializes view-op logging and checkpoint state capture, so a
	// checkpoint never snapshots a view whose registration record lies past
	// the checkpoint's applied LSN (catalog mutations are already ordered by
	// the catalog's own mutation lock, which the capture freeze holds).
	opMu sync.Mutex

	// ckptMu serializes whole checkpoints (capture + file install + prune +
	// WAL truncation): a manual POST /admin/checkpoint racing the automatic
	// one could otherwise prune the snapshot the other's manifest points at.
	ckptMu sync.Mutex

	mu           sync.Mutex // counters and degraded state below
	since        int        // records since last checkpoint
	checkpointin bool       // auto-checkpoint in flight
	checkpoints  uint64
	ckptFailures uint64
	lastCkptErr  string
	lastCkptLSN  uint64
	lastCkptTime time.Time // last successful own-dir checkpoint (zero: none)
	degraded     bool
	degCause     error
	degSince     time.Time
	replayNsRec  float64 // observed replay cost per record

	wg       sync.WaitGroup
	recovery RecoveryStats
}

// LogMutation implements catalog.Persistence: it runs under the catalog's
// mutation lock, appending the effective delta (or the full image of a
// reset) before the catalog applies it.
func (p *persistence) LogMutation(m catalog.Mutation) error {
	rec := &wal.Record{Name: m.Name}
	switch {
	case m.Reset && m.New != nil && m.Origin != nil:
		// A file-backed registration logs the ~100-byte path+hash reference
		// instead of the full tuple image, keeping the log (and shipped
		// replication segments) small; replay re-reads and verifies the file.
		rec.Kind = wal.KindRegisterFile
		rec.Path = m.Origin.Path
		rec.Hash = m.Origin.SHA256[:]
		rec.Tuples = m.Origin.Tuples
	case m.Reset && m.New != nil:
		rec.Kind = wal.KindRegister
		rec.Pairs = m.New.Pairs()
	case m.Reset:
		rec.Kind = wal.KindDrop
	default:
		rec.Kind = wal.KindMutate
		rec.Added, rec.Removed = m.Added, m.Removed
	}
	if err := p.appendRetry(rec); err != nil {
		return err
	}
	p.bumpSince()
	return nil
}

// logViewOp appends a view registration or drop record.
func (p *persistence) logViewOp(kind byte, name, text string) error {
	if err := p.appendRetry(&wal.Record{Kind: kind, Name: name, Query: text}); err != nil {
		return err
	}
	p.bumpSince()
	return nil
}

// appendRetry appends one record, retrying transient failures with capped
// doubling backoff. Exhausted retries flip the engine into read-only
// degraded mode; a degraded engine fails fast without touching the disk.
// Retries run under the catalog's mutation lock, so the defaults keep the
// worst-case stall to a few milliseconds. Permanent non-disk errors — a
// mutation racing Close hits wal.ErrClosed — fail fast without retrying or
// degrading: they say nothing about disk health, and degrading on them
// would turn a clean shutdown into a spurious OnDegraded firing.
func (p *persistence) appendRetry(rec *wal.Record) error {
	p.mu.Lock()
	if p.degraded {
		cause := p.degCause
		p.mu.Unlock()
		return fmt.Errorf("%w; cause: %v", ErrDegraded, cause)
	}
	p.mu.Unlock()
	retries := p.opts.AppendRetries
	backoff := p.opts.RetryBackoff
	var err error
	for attempt := 0; ; attempt++ {
		if _, err = p.w.Append(rec); err == nil {
			return nil
		}
		if errors.Is(err, wal.ErrClosed) {
			return err
		}
		if attempt >= retries {
			break
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
	p.enterDegraded(err)
	return fmt.Errorf("%w; cause: %v", ErrDegraded, err)
}

// enterDegraded flips the engine read-only (idempotent) and fires the
// OnDegraded hook on the transition.
func (p *persistence) enterDegraded(cause error) {
	p.mu.Lock()
	if p.degraded {
		p.mu.Unlock()
		return
	}
	p.degraded = true
	p.degCause = cause
	p.degSince = time.Now()
	hook := p.opts.OnDegraded
	p.mu.Unlock()
	degradedGauge.Set(1)
	degradedTotal.Inc()
	if hook != nil {
		hook(cause)
	}
}

// tryRearm probes the WAL (repairing any damaged tail and forcing an
// fsync) and, on success, clears degraded mode. It reports whether the
// engine accepts writes afterwards.
func (p *persistence) tryRearm() error {
	if err := p.w.Probe(); err != nil {
		return err
	}
	p.mu.Lock()
	p.degraded = false
	p.degCause = nil
	p.degSince = time.Time{}
	p.mu.Unlock()
	degradedGauge.Set(0)
	return nil
}

// bumpSince advances the records-since-checkpoint counter and spawns an
// automatic background checkpoint at the policy threshold. The goroutine
// runs outside the caller's locks (checkpointing takes the catalog freeze,
// which the logging caller may hold).
//
// Policy: an explicit CheckpointEvery count overrides; otherwise the
// adaptive rule triggers when the estimated replay cost of the accumulated
// tail — records × observed ns/record from the last recovery (seeded with
// DefaultReplayNsPerRecord) — crosses CheckpointReplayTarget.
func (p *persistence) bumpSince() {
	p.mu.Lock()
	p.since++
	var due bool
	switch {
	case p.opts.CheckpointEvery > 0:
		due = p.since >= p.opts.CheckpointEvery
	case p.opts.CheckpointReplayTarget > 0:
		nsRec := p.replayNsRec
		if nsRec <= 0 {
			nsRec = DefaultReplayNsPerRecord
		}
		due = p.since >= minAdaptiveRecords &&
			float64(p.since)*nsRec >= float64(p.opts.CheckpointReplayTarget.Nanoseconds())
	}
	trigger := due && !p.checkpointin
	if trigger {
		p.checkpointin = true
		p.wg.Add(1)
	}
	p.mu.Unlock()
	if trigger {
		go func() {
			defer p.wg.Done()
			_, _ = p.eng.Checkpoint() // failures land in PersistenceStats counters
			p.mu.Lock()
			p.checkpointin = false
			p.mu.Unlock()
		}()
	}
}

// Open attaches a durability layer to the engine: it recovers the state
// persisted in dir (latest snapshot, then the WAL tail replayed through the
// normal mutation path, so registered views re-maintain incrementally during
// replay), then logs every subsequent catalog and view mutation to the WAL
// ahead of applying it. Open must run before the engine holds any state of
// its own — it is the first call on a serving engine, not a merge.
func (e *Engine) Open(dir string, opts PersistOptions) error {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	if e.persist != nil {
		return fmt.Errorf("core: engine already has data dir %s", e.persist.dir)
	}
	if e.cat.Len() > 0 || e.views.Len() > 0 {
		return fmt.Errorf("core: Open on a non-empty engine (%d relations, %d views)", e.cat.Len(), e.views.Len())
	}
	if opts.AppendRetries == 0 {
		opts.AppendRetries = DefaultAppendRetries
	} else if opts.AppendRetries < 0 {
		opts.AppendRetries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = DefaultRetryBackoff
	}
	start := time.Now()
	var rec RecoveryStats

	// 1. Latest checkpoint, if any.
	man, ok, err := snapshot.LoadManifestFS(opts.FS, dir)
	if err != nil {
		return fmt.Errorf("core: open %s: %w", dir, err)
	}
	if ok {
		st, err := snapshot.LoadFS(opts.FS, dir, man)
		if err != nil {
			return fmt.Errorf("core: open %s: %w", dir, err)
		}
		if err := e.restoreSnapshot(st, &rec); err != nil {
			return err
		}
	}

	// 2. WAL tail, replayed through the normal mutation path: relations
	// rebuild by linear delta merges and views re-maintain incrementally,
	// exactly as they would have live. The replay is timed per record to
	// feed the adaptive checkpoint policy.
	replayStart := time.Now()
	if err := wal.ReplayFS(opts.FS, dir, rec.SnapshotLSN, func(lsn uint64, r *wal.Record) error {
		rec.ReplayedRecords++
		return e.applyRecord(r, &rec)
	}); err != nil {
		return fmt.Errorf("core: replaying wal: %w", err)
	}
	if rec.ReplayedRecords > 0 {
		rec.ReplayNsPerRecord = float64(time.Since(replayStart).Nanoseconds()) / float64(rec.ReplayedRecords)
	}
	// Build every incremental view's result now that it reflects the tail:
	// the first reads after a restart then slice it, instead of the first
	// full read each paying for its whole store.
	e.views.Materialize()

	// 3. Open the log for appends (truncating any torn tail) and attach the
	// sink — from here on every mutation is logged before it is applied.
	w, err := wal.Open(dir, wal.Options{
		Policy: opts.Fsync, Interval: opts.FsyncInterval, SegmentBytes: opts.SegmentBytes, FS: opts.FS,
	})
	if err != nil {
		return err
	}
	rec.DurationMs = float64(time.Since(start).Microseconds()) / 1000
	p := &persistence{
		eng: e, dir: dir, w: w, opts: opts, recovery: rec,
		lastCkptLSN: rec.SnapshotLSN, replayNsRec: rec.ReplayNsPerRecord,
	}
	e.cat.SetPersistence(p)
	e.persist = p
	recoveryReplayRecords.Set(float64(rec.ReplayedRecords))
	recoverySeconds.Set(rec.DurationMs / 1000)
	degradedGauge.Set(0)
	return nil
}

// restoreSnapshot loads a decoded snapshot state into an empty engine —
// shared by recovery (Open) and replica bootstrap.
func (e *Engine) restoreSnapshot(st *snapshot.State, rec *RecoveryStats) error {
	rec.SnapshotLSN = st.AppliedLSN
	for _, r := range st.Relations {
		// Images decode strictly sorted, so index rebuild skips a sort.
		if err := e.cat.Register(r.Name, relation.FromPairs(r.Name, r.Pairs)); err != nil {
			return fmt.Errorf("core: restore relation %q: %w", r.Name, err)
		}
		rec.RestoredRelations++
	}
	for _, v := range st.Views {
		if err := e.views.Restore(v); err != nil {
			return fmt.Errorf("core: restore view %q: %w", v.Name, err)
		}
		rec.RestoredViews++
	}
	return nil
}

// applyRecord replays one WAL record through the engine.
func (e *Engine) applyRecord(r *wal.Record, rec *RecoveryStats) error {
	switch r.Kind {
	case wal.KindMutate:
		if _, err := e.cat.Mutate(r.Name, r.Added, r.Removed); err != nil {
			return err
		}
		rec.ReplayedMutations++
	case wal.KindRegister:
		if err := e.cat.Register(r.Name, relation.FromPairs(r.Name, r.Pairs)); err != nil {
			return err
		}
	case wal.KindDrop:
		if _, err := e.cat.Drop(r.Name); err != nil {
			return err
		}
	case wal.KindRegisterFile:
		// The log holds a path+hash reference, not the tuples: re-read the
		// source file and verify it is byte-identical to what was loaded.
		// A missing or changed file is a loud failure — silently registering
		// different data would corrupt acked state.
		data, err := os.ReadFile(r.Path)
		if err != nil {
			return fmt.Errorf("core: replaying file registration %q: %w", r.Name, err)
		}
		if sum := sha256.Sum256(data); !bytes.Equal(sum[:], r.Hash) {
			return fmt.Errorf("core: replaying file registration %q: %s changed since it was logged (SHA-256 mismatch)", r.Name, r.Path)
		}
		rel, err := relation.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("core: replaying file registration %q: %s: %w", r.Name, r.Path, err)
		}
		if uint64(rel.Size()) != r.Tuples {
			return fmt.Errorf("core: replaying file registration %q: %s decoded %d tuples, logged %d", r.Name, r.Path, rel.Size(), r.Tuples)
		}
		if err := e.cat.Register(r.Name, rel); err != nil {
			return err
		}
	case wal.KindRegisterView:
		// A checkpoint captured between a view's registration and its log
		// record can leave the view both in the snapshot and in the tail;
		// the duplicate registration is benign, prefer the restored store.
		if _, err := e.views.Register(context.Background(), r.Name, r.Query); err != nil &&
			!errors.Is(err, view.ErrExists) {
			return err
		}
	case wal.KindDropView:
		e.views.Drop(r.Name)
	default:
		return fmt.Errorf("core: unknown wal record kind %d", r.Kind)
	}
	return nil
}

// Checkpoint captures one consistent image of the catalog and every view
// store under the catalog's mutation freeze, writes it atomically next to
// the WAL, commits it via the manifest, and reclaims the WAL segments the
// image supersedes. Serving continues during the write; only the in-memory
// capture blocks mutations.
//
// A failed checkpoint never clobbers the last-good MANIFEST or leaks temp
// files (the atomic-write path cleans up; PruneFS sweeps crash leftovers). A
// successful checkpoint on a degraded engine probes the WAL and re-arms
// writes when the disk has recovered — e.g. when the truncated segments
// freed the space an ENOSPC complained about.
func (e *Engine) Checkpoint() (*CheckpointInfo, error) {
	p := e.persistRef()
	if p == nil {
		return nil, fmt.Errorf("core: %w", ErrNoPersistence)
	}
	info, err := p.checkpointTo(p.dir, true)
	if err != nil {
		p.noteCheckpointFailure(err)
		return nil, err
	}
	p.mu.Lock()
	p.checkpoints++
	p.lastCkptLSN = info.AppliedLSN
	p.lastCkptTime = time.Now()
	p.since = 0
	p.lastCkptErr = ""
	degraded := p.degraded
	p.mu.Unlock()
	noteCheckpoint(info)
	if degraded {
		_ = p.tryRearm() // still degraded (with the original cause) on failure
	}
	return info, nil
}

// CheckpointTo writes a standalone checkpoint (image + manifest) to dir —
// an escape hatch for a degraded engine whose own data dir is failing: the
// operator points it at a healthy disk, secures the state, and the engine
// re-arms if its WAL probes healthy. dir must differ from the engine's data
// dir (use Checkpoint for that); the WAL is neither rotated nor truncated,
// and the always-real filesystem is used (the healthy dir is not the
// faulted one).
func (e *Engine) CheckpointTo(dir string) (*CheckpointInfo, error) {
	p := e.persistRef()
	if p == nil {
		return nil, fmt.Errorf("core: %w", ErrNoPersistence)
	}
	if dir == "" || dir == p.dir {
		return e.Checkpoint()
	}
	info, err := p.checkpointTo(dir, false)
	if err != nil {
		p.noteCheckpointFailure(err)
		return nil, err
	}
	p.mu.Lock()
	p.lastCkptErr = ""
	degraded := p.degraded
	p.mu.Unlock()
	if degraded {
		_ = p.tryRearm()
	}
	return info, nil
}

// noteCheckpointFailure records a failed checkpoint for /healthz.
func (p *persistence) noteCheckpointFailure(err error) {
	p.mu.Lock()
	p.ckptFailures++
	p.lastCkptErr = err.Error()
	p.mu.Unlock()
	checkpointFailures.Inc()
}

// noteCheckpoint publishes one successful checkpoint to the metrics
// registry.
func noteCheckpoint(info *CheckpointInfo) {
	checkpointTotal.Inc()
	checkpointSeconds.Observe(info.DurationMs / 1000)
	checkpointBytes.Set(float64(info.Bytes))
	checkpointLastUnix.Set(float64(time.Now().Unix()))
}

// checkpointTo captures and installs one checkpoint in dir. own marks the
// engine's data dir: only then are old images pruned and the WAL rotated
// and truncated, and only then does I/O route through the injectable
// filesystem.
func (p *persistence) checkpointTo(dir string, own bool) (*CheckpointInfo, error) {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	start := time.Now()
	var st snapshot.State
	e := p.eng
	p.opMu.Lock()
	e.cat.Freeze(func() {
		rels, _, _ := e.cat.Snapshot()
		names := make([]string, 0, len(rels))
		for name := range rels {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st.Relations = append(st.Relations, snapshot.Relation{Name: name, Pairs: rels[name].Pairs()})
		}
		st.Views = e.views.ExportStates()
		st.AppliedLSN = p.w.NextLSN() - 1
	})
	p.opMu.Unlock()

	fsys := faultfs.FS(nil) // a foreign healthy dir uses the real filesystem
	if own {
		fsys = p.opts.FS
	}
	name, size, err := snapshot.WriteFS(fsys, dir, &st)
	if err != nil {
		return nil, err
	}
	if err := snapshot.WriteManifestFS(fsys, dir, snapshot.Manifest{Snapshot: name, AppliedLSN: st.AppliedLSN}); err != nil {
		return nil, err
	}
	if own {
		if err := snapshot.PruneFS(fsys, dir, name); err != nil {
			return nil, err
		}
		if err := p.w.Rotate(); err != nil {
			return nil, err
		}
		if err := p.w.TruncateBefore(st.AppliedLSN + 1); err != nil {
			return nil, err
		}
	}
	return &CheckpointInfo{
		Snapshot: name, AppliedLSN: st.AppliedLSN,
		Relations: len(st.Relations), Views: len(st.Views), Bytes: size,
		DurationMs: float64(time.Since(start).Microseconds()) / 1000,
	}, nil
}

// Resume is the operator re-arm (POST /admin/resume): it probes the WAL —
// repairing a damaged tail and forcing an fsync — and clears degraded mode
// on success. On a healthy engine it is a no-op health probe.
func (e *Engine) Resume() error {
	p := e.persistRef()
	if p == nil {
		return fmt.Errorf("core: %w", ErrNoPersistence)
	}
	if err := p.tryRearm(); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	return nil
}

// Degraded reports whether the engine is in read-only degraded mode, with
// the cause and transition time when it is.
func (e *Engine) Degraded() (degraded bool, cause error, since time.Time) {
	p := e.persistRef()
	if p == nil {
		return false, nil, time.Time{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degraded, p.degCause, p.degSince
}

// Close detaches the durability layer: no further mutations are logged, the
// in-flight auto-checkpoint (if any) completes, and the WAL is fsynced and
// closed. The in-memory engine remains usable (but no longer durable);
// graceful shutdown calls Close after draining in-flight queries.
func (e *Engine) Close() error {
	e.pmu.Lock()
	p := e.persist
	e.persist = nil
	e.pmu.Unlock()
	if p == nil {
		return nil
	}
	e.cat.SetPersistence(nil)
	p.wg.Wait()
	return p.w.Close()
}

// persistRef returns the current durability layer, or nil.
func (e *Engine) persistRef() *persistence {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	return e.persist
}

// RecoveryStats reports what Open recovered; the zero value when the engine
// runs without a data dir.
func (e *Engine) RecoveryStats() RecoveryStats {
	if p := e.persistRef(); p != nil {
		return p.recovery
	}
	return RecoveryStats{}
}

// PersistenceStats summarizes the durability layer for /healthz.
func (e *Engine) PersistenceStats() PersistenceStats {
	p := e.persistRef()
	if p == nil {
		return PersistenceStats{}
	}
	p.mu.Lock()
	st := PersistenceStats{
		Enabled: true, Dir: p.dir,
		Checkpoints: p.checkpoints, LastCheckpointLSN: p.lastCkptLSN,
		CheckpointEvery:          p.opts.CheckpointEvery,
		CheckpointReplayTargetMs: float64(p.opts.CheckpointReplayTarget.Microseconds()) / 1000,
		CheckpointFailures:       p.ckptFailures,
		LastCheckpointError:      p.lastCkptErr,
		Degraded:                 p.degraded,
		Recovery:                 p.recovery,
	}
	if !p.lastCkptTime.IsZero() {
		st.LastCheckpointUnix = p.lastCkptTime.Unix()
	}
	if p.degraded {
		st.DegradedCause = p.degCause.Error()
		st.DegradedSince = p.degSince.UTC().Format(time.RFC3339)
	}
	p.mu.Unlock()
	st.WAL = p.w.Stats()
	return st
}
