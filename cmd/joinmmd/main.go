// Command joinmmd serves the join-project query engine over HTTP/JSON:
// text queries, EXPLAIN (and EXPLAIN ANALYZE), catalog management,
// tuple-level mutations, live incrementally-maintained views, durable state
// under a data dir, WAL-shipping replication to read-only followers, and
// runtime observability surfaces (/metrics, /healthz, optional
// /debug/pprof) and workload introspection (/stats/statements,
// /stats/activity with external kill, /debug/flight) — see internal/server
// for the endpoint reference.
//
// Usage:
//
//	joinmmd -addr :8080 -load R=friends.rel -load S=follows.rel
//	joinmmd -addr :8080 -data-dir /var/lib/joinmmd -fsync always
//	joinmmd -addr :8081 -replicate-from http://primary:8080
//	curl -d '{"query": "Q(x, z) :- R(x, y), S(y, z)"}' localhost:8080/query
//	curl -d '{"name": "v", "query": "V(x, z) :- R(x, y), S(y, z)"}' localhost:8080/views
//	curl -d '{"pairs": [[1, 2]]}' localhost:8080/catalog/relations/R/insert
//	curl 'localhost:8080/views/v?limit=100'
//	curl -X POST localhost:8080/admin/checkpoint
//	curl localhost:8080/metrics
//
// Flags:
//
//	-addr                      listen address (default :8080)
//	-timeout                   per-query evaluation timeout (default 30s)
//	-max-in-flight             concurrent query admission bound (default: all cores)
//	-queue-depth               admission wait-queue depth; requests beyond the
//	                           in-flight bound wait here, the rest get 429
//	                           (0 = server default 64, negative = no queue)
//	-max-query-bytes           per-query materialization budget in bytes;
//	                           exceeding it fails that query with 422
//	                           (0 = unlimited)
//	-workers                   engine parallelism per query (default: all cores)
//	-load name=path            preload a relation (repeatable); files are written
//	                           by (*Relation).Save / cmd/datagen. With -data-dir,
//	                           a name already recovered from the data dir is
//	                           skipped — the durable state wins over the seed file
//	-data-dir                  durability directory: state is recovered from it on
//	                           start (snapshot + WAL replay) and every mutation is
//	                           write-ahead logged to it ("" = ephemeral); a node
//	                           with a data dir also serves /repl/* so followers
//	                           can replicate from it
//	-replicate-from            primary base URL: run as a read-only follower that
//	                           bootstraps from the primary's snapshot and tails
//	                           its WAL; mutations answer 503 pointing at the
//	                           primary; incompatible with -data-dir and -load
//	-repl-poll-interval        how often a caught-up follower re-polls the
//	                           primary (default 500ms; steady-state lag bound)
//	-fsync                     WAL fsync policy: always|interval|never (default always)
//	-fsync-interval            fsync period under -fsync interval (default 100ms)
//	-checkpoint-every          automatic checkpoint after N logged mutation batches
//	                           (0 = defer to -checkpoint-replay-target)
//	-checkpoint-replay-target  adaptive checkpoint policy: checkpoint when the
//	                           estimated WAL replay cost exceeds this duration
//	                           (default 2s; 0 = no automatic checkpoints)
//	-degraded-policy           what to do when persistent WAL failure degrades
//	                           the engine: readonly = keep serving reads and
//	                           fail mutations with 503 until the disk heals
//	                           (POST /admin/resume or a checkpoint re-arms);
//	                           exit = shut down so a supervisor can fail over
//	                           (default readonly)
//	-slow-query-threshold      log a structured "slow query" warning for any
//	                           query at or above this duration, and retain such
//	                           queries in the flight recorder unconditionally
//	                           (0 = disable the log and use the recorder's
//	                           default 100ms slow threshold)
//	-stmt-stats-max            distinct statement fingerprints tracked by
//	                           /stats/statements before new ones fold into the
//	                           overflow bucket (0 = default 512)
//	-flight-ring-size          flight-recorder capacity: recently completed
//	                           query traces kept for /debug/flight
//	                           (0 = default 256)
//	-flight-sample-rate        keep 1-in-N unremarkable queries in the flight
//	                           recorder; slow, failed, killed and shed queries
//	                           are always kept (0 = default 16)
//	-optimizer-constants       pin the optimizer's Ts,Tm,TI machine constants in
//	                           nanoseconds (e.g. 0.5,6,4), skipping the startup
//	                           micro-probe: reproducible plan choices across
//	                           runners, and the escape hatch when the
//	                           /stats/planner drift gauges fire ("" = probe)
//	-optimizer-recalibrate     adopt EWMA-smoothed observed constants online:
//	                           bounded step per adoption, never mid-query,
//	                           logged and counted in
//	                           joinmm_optimizer_recalibrations_total (off by
//	                           default)
//	-pprof                     mount net/http/pprof under /debug/pprof/ on the
//	                           service mux (off by default)
//	-log-format                log output format: text|json (default text)
//	-version                   print version, commit, and Go runtime, then exit
//
// On SIGINT/SIGTERM the server shuts down gracefully: the listener closes,
// in-flight queries drain through the admission semaphore, the WAL is
// fsynced and closed, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/server"
	"repro/internal/wal"
)

// Build identity, stamped by the release build:
//
//	go build -ldflags "-X main.version=v1.2.3 -X main.commit=$(git rev-parse --short HEAD)" ./cmd/joinmmd
//
// When not stamped, commit falls back to the vcs.revision embedded by the Go
// toolchain (if the build ran inside a git checkout).
var (
	version = "dev"
	commit  = ""
)

// buildInfo resolves the binary identity shared by -version, /healthz and
// the joinmm_build_info metric.
func buildInfo() server.BuildInfo {
	b := server.BuildInfo{Version: version, Commit: commit, Go: runtime.Version()}
	if b.Commit == "" {
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, kv := range bi.Settings {
				if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
					b.Commit = kv.Value[:12]
				}
			}
		}
	}
	return b
}

// parseConstants parses the -optimizer-constants "ts,tm,ti" form.
func parseConstants(s string) (optimizer.Constants, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return optimizer.Constants{}, fmt.Errorf("-optimizer-constants wants ts,tm,ti (3 values), got %q", s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return optimizer.Constants{}, fmt.Errorf("-optimizer-constants: bad value %q (want positive nanoseconds)", p)
		}
		vals[i] = v
	}
	return optimizer.Constants{Ts: vals[0], Tm: vals[1], TI: vals[2]}, nil
}

// loadFlags collects repeated -load name=path specs.
type loadFlags map[string]string

func (l loadFlags) String() string { return fmt.Sprint(map[string]string(l)) }

func (l loadFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	l[name] = path
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "joinmmd: %v\n", err)
		os.Exit(1)
	}
}

// run is main with an error return, so graceful shutdown reaches exit code
// 0 through one path.
func run() error {
	loads := loadFlags{}
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-query evaluation timeout")
		inflight    = flag.Int("max-in-flight", 0, "max concurrently evaluating queries (0 = all cores)")
		queueDepth  = flag.Int("queue-depth", 0, "admission wait-queue depth beyond -max-in-flight; overflow gets 429 (0 = default 64, negative = no queue)")
		maxQBytes   = flag.Int64("max-query-bytes", 0, "per-query materialization budget in bytes; exceeded queries fail with 422 (0 = unlimited)")
		workers     = flag.Int("workers", 0, "engine workers per query (0 = all cores)")
		dataDir     = flag.String("data-dir", "", "durability directory (recover on start, write-ahead log mutations; \"\" = ephemeral)")
		fsync       = flag.String("fsync", "always", "WAL fsync policy: always|interval|never")
		fsyncIvl    = flag.Duration("fsync-interval", 100*time.Millisecond, "fsync period under -fsync interval")
		ckptEvery   = flag.Int("checkpoint-every", 0, "automatic checkpoint after N logged mutation batches (0 = defer to -checkpoint-replay-target)")
		ckptReplay  = flag.Duration("checkpoint-replay-target", 2*time.Second, "checkpoint when estimated WAL replay cost exceeds this (0 = no automatic checkpoints)")
		degPolicy   = flag.String("degraded-policy", "readonly", "on persistent WAL failure: readonly (serve reads, 503 mutations) or exit (shut down for failover)")
		replFrom    = flag.String("replicate-from", "", "primary base URL; runs this node as a read-only follower that bootstraps from the primary's snapshot and tails its WAL (\"\" = primary)")
		replPoll    = flag.Duration("repl-poll-interval", 500*time.Millisecond, "how often a caught-up follower re-polls the primary (steady-state lag bound)")
		slowQuery   = flag.Duration("slow-query-threshold", 0, "log a structured warning for queries at or above this duration and always retain them in the flight recorder (0 = no log, default recorder threshold)")
		stmtMax     = flag.Int("stmt-stats-max", 0, "distinct statement fingerprints in /stats/statements before overflow (0 = default 512)")
		flightSize  = flag.Int("flight-ring-size", 0, "flight-recorder capacity for /debug/flight (0 = default 256)")
		flightRate  = flag.Int("flight-sample-rate", 0, "keep 1-in-N unremarkable queries in the flight recorder; slow and failed queries are always kept (0 = default 16)")
		optConsts   = flag.String("optimizer-constants", "", "pin the optimizer machine constants as ts,tm,ti in nanoseconds, skipping the startup probe (\"\" = probe)")
		optRecal    = flag.Bool("optimizer-recalibrate", false, "let the optimizer adopt EWMA-smoothed observed constants (bounded step, between queries)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logFormat   = flag.String("log-format", "text", "log output format: text|json")
		showVersion = flag.Bool("version", false, "print version, commit, and Go runtime, then exit")
	)
	flag.Var(loads, "load", "preload relation, name=path (repeatable)")
	flag.Parse()

	build := buildInfo()
	if *showVersion {
		fmt.Printf("joinmmd %s", build.Version)
		if build.Commit != "" {
			fmt.Printf(" (%s)", build.Commit)
		}
		fmt.Printf(" %s\n", build.Go)
		return nil
	}
	if *degPolicy != "readonly" && *degPolicy != "exit" {
		return fmt.Errorf("-degraded-policy must be readonly or exit, got %q", *degPolicy)
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("-log-format must be text or json, got %q", *logFormat)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	if *replFrom != "" {
		// A follower keeps no WAL (its durability is the primary's) and
		// takes no seed files (its state is the primary's).
		if *dataDir != "" {
			return fmt.Errorf("-replicate-from is incompatible with -data-dir: a follower keeps no local durability")
		}
		if len(loads) > 0 {
			return fmt.Errorf("-replicate-from is incompatible with -load: a follower's state is the primary's")
		}
	}

	engOpts := []core.Option{
		core.WithWorkers(*workers),
		core.WithQueryBudget(*maxQBytes, 0),
		core.WithIntrospection(core.IntrospectionConfig{
			MaxStatements: *stmtMax,
			FlightSize:    *flightSize,
			FlightSample:  *flightRate,
			SlowThreshold: *slowQuery,
		}),
	}
	if *optConsts != "" {
		c, err := parseConstants(*optConsts)
		if err != nil {
			return err
		}
		// Pin both the engine's optimizer and the process-wide calibration
		// (the GHD bag planner builds its own optimizer through it).
		optimizer.PinConstants(c.Ts, c.Tm, c.TI)
		engOpts = append(engOpts, core.WithOptimizerConstants(c))
		logger.Info("optimizer constants pinned", "ts", c.Ts, "tm", c.Tm, "ti", c.TI)
	}
	if *optRecal {
		engOpts = append(engOpts, core.WithRecalibration(optimizer.RecalConfig{}))
	}
	eng := core.NewEngine(engOpts...)
	degradeCh := make(chan error, 1)
	if *dataDir != "" {
		policy, err := wal.ParsePolicy(*fsync)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := eng.Open(*dataDir, core.PersistOptions{
			Fsync: policy, FsyncInterval: *fsyncIvl,
			CheckpointEvery: *ckptEvery, CheckpointReplayTarget: *ckptReplay,
			OnDegraded: func(cause error) {
				logger.Error("engine degraded to read-only", "error", cause)
				if *degPolicy == "exit" {
					select {
					case degradeCh <- cause:
					default:
					}
				}
			},
		}); err != nil {
			return err
		}
		rec := eng.RecoveryStats()
		logger.Info("recovered data dir",
			"dir", *dataDir,
			"elapsed", time.Since(start).Round(time.Millisecond).String(),
			"snapshot_lsn", rec.SnapshotLSN,
			"relations", rec.RestoredRelations,
			"views", rec.RestoredViews,
			"replayed_records", rec.ReplayedRecords,
			"replayed_mutations", rec.ReplayedMutations)
	}
	if len(loads) > 0 {
		// With a data dir, -load only seeds relations the recovered state
		// does not already have: re-registering a recovered relation would
		// silently discard every acked mutation since the file was written
		// (and append the full image to the WAL on each restart).
		skipped := 0
		for name := range loads {
			if _, ok := eng.Catalog().Get(name); ok {
				logger.Warn("skipping -load: already recovered (delete the relation first to reload)",
					"relation", name, "dir", *dataDir)
				delete(loads, name)
				skipped++
			}
		}
		start := time.Now()
		if err := eng.Catalog().LoadFiles(loads); err != nil {
			return err
		}
		if len(loads) > 0 {
			logger.Info("loaded relations",
				"count", len(loads),
				"elapsed", time.Since(start).Round(time.Millisecond).String(),
				"already_recovered", skipped)
		}
	}
	var replica *core.Replica
	if *replFrom != "" {
		var err error
		replica, err = eng.StartReplica(*replFrom, core.ReplicaOptions{
			PollInterval: *replPoll, Logger: logger,
		})
		if err != nil {
			return fmt.Errorf("invalid -replicate-from: %w", err)
		}
		logger.Info("replicating from primary", "primary", *replFrom, "poll_interval", replPoll.String())
	}
	s := server.New(server.Config{
		Engine: eng, Timeout: *timeout, MaxInFlight: *inflight, QueueDepth: *queueDepth,
		Logger: logger, SlowQueryThreshold: *slowQuery, EnablePprof: *pprofOn,
		Build: build, Replica: replica,
	})

	// The handler goes in before the listener exists: once the ready line
	// below is out, a supervisor may signal at any moment, and an unhandled
	// SIGTERM kills the process with no drain and no WAL close.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("joinmmd listening",
		"addr", ln.Addr().String(),
		"version", build.Version,
		"relations", eng.Catalog().Len(),
		"timeout", timeout.String(),
		"fsync", *fsync,
		"pprof", *pprofOn)

	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	var degradeErr error
	select {
	case err := <-errCh:
		return err
	case cause := <-degradeCh:
		// -degraded-policy=exit: shut down gracefully (in-flight queries
		// still drain) and exit non-zero so a supervisor fails over.
		logger.Error("-degraded-policy=exit, shutting down")
		degradeErr = fmt.Errorf("engine degraded: %w", cause)
	case <-ctx.Done():
	}
	stop()

	// Graceful shutdown: close the listener and wait for handlers, drain the
	// admission semaphore so no query is mid-evaluation, then fsync + close
	// the WAL. A second signal is not special-cased: the shutdown deadline
	// bounds the wait.
	logger.Info("shutting down: draining in-flight queries")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("http shutdown", "error", err)
	}
	if err := s.Drain(shutdownCtx); err != nil {
		logger.Error("drain", "error", err)
	}
	if replica != nil {
		replica.Stop()
	}
	if err := eng.Close(); err != nil && degradeErr == nil {
		return fmt.Errorf("closing wal: %w", err)
	}
	logger.Info("shutdown complete")
	return degradeErr
}
