package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snapshot"
	"repro/internal/wal"
)

// Protocol errors a follower reacts to by re-bootstrapping.
var (
	// ErrTruncatedHistory means the requested LSN is below the primary's
	// retained WAL history (a checkpoint truncated it): re-bootstrap from a
	// snapshot.
	ErrTruncatedHistory = errors.New("repl: requested LSN below retained history")
	// ErrAhead means the follower has applied records the primary does not
	// have (e.g. the primary restarted after losing an unsynced tail):
	// re-bootstrap from a snapshot.
	ErrAhead = errors.New("repl: follower ahead of primary")
)

// Client fetches snapshots and record streams from a primary's Source.
type Client struct {
	// Base is the primary's base URL, e.g. "http://primary:8080".
	Base string
	// HTTP is the transport; nil means a default client with a 30s timeout.
	HTTP *http.Client

	// Request-ID minting: every pull carries an X-Request-Id the primary's
	// instrumented routes honor, so a follower's fetches correlate in the
	// primary's access and slow-query logs instead of arriving anonymous.
	// The prefix is derived from the first request's wall time, matching the
	// server's own boot-prefixed ID shape.
	ridPrefix string
	ridOnce   sync.Once
	ridSeq    atomic.Uint64
}

// nextRequestID mints a correlation ID for one pull, e.g.
// "repl-1a2b3c4d-000042".
func (c *Client) nextRequestID() string {
	c.ridOnce.Do(func() {
		c.ridPrefix = fmt.Sprintf("repl-%08x", uint32(time.Now().UnixNano()))
	})
	return fmt.Sprintf("%s-%06d", c.ridPrefix, c.ridSeq.Add(1))
}

// defaultHTTP bounds a hung primary: responses are capped server-side, so a
// healthy round trip is far below this.
var defaultHTTP = &http.Client{Timeout: 30 * time.Second}

// maxBodyBytes caps a response read client-side (a sane multiple of the
// source's default response cap; snapshots can be larger but are bounded by
// the same order of magnitude as the state itself).
const maxBodyBytes = 1 << 30

// ShippedRecord is one (LSN, record) pair from a segment stream.
type ShippedRecord struct {
	LSN    uint64
	Record *wal.Record
}

// Batch is one segment-stream response.
type Batch struct {
	// Records are the shipped records, contiguous from the requested LSN.
	Records []ShippedRecord
	// PrimaryNext is the primary's next LSN at serve time; the follower's
	// lag is PrimaryNext-1 minus its applied LSN.
	PrimaryNext uint64
}

// Bootstrap is a fetched snapshot image for follower bootstrap.
type Bootstrap struct {
	// State is the decoded snapshot.
	State *snapshot.State
	// PrimaryNext is the primary's next LSN at serve time.
	PrimaryNext uint64
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTP
}

// get issues one GET and returns the full body plus headers, mapping the
// protocol status codes to their sentinel errors.
func (c *Client) get(ctx context.Context, path string) ([]byte, http.Header, error) {
	u := strings.TrimRight(c.Base, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: %w", err)
	}
	req.Header.Set("X-Request-Id", c.nextRequestID())
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("repl: reading %s: %w", path, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body, resp.Header, nil
	case http.StatusGone:
		return nil, nil, ErrTruncatedHistory
	case http.StatusRequestedRangeNotSatisfiable:
		return nil, nil, ErrAhead
	default:
		return nil, nil, fmt.Errorf("repl: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
}

// headerLSN parses a required uint64 header.
func headerLSN(h http.Header, name string) (uint64, error) {
	v, err := strconv.ParseUint(h.Get(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: missing or malformed %s header: %q", name, h.Get(name))
	}
	return v, nil
}

// Snapshot fetches and decodes the primary's bootstrap snapshot.
func (c *Client) Snapshot(ctx context.Context) (*Bootstrap, error) {
	clientSnapshots.Inc()
	body, h, err := c.get(ctx, "/repl/snapshot")
	if err != nil {
		return nil, err
	}
	st, err := snapshot.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("repl: snapshot: %w", err)
	}
	applied, err := headerLSN(h, HeaderAppliedLSN)
	if err != nil {
		return nil, err
	}
	if applied != st.AppliedLSN {
		return nil, fmt.Errorf("repl: snapshot header LSN %d disagrees with image LSN %d", applied, st.AppliedLSN)
	}
	next, err := headerLSN(h, HeaderNextLSN)
	if err != nil {
		return nil, err
	}
	return &Bootstrap{State: st, PrimaryNext: next}, nil
}

// Fetch requests the record stream starting at from (≥ 1). The decoded
// records are validated to be contiguous from exactly that LSN; any gap,
// corruption, or truncation is an error, never a silently short batch.
// An empty Records with PrimaryNext == from means caught up.
func (c *Client) Fetch(ctx context.Context, from uint64) (*Batch, error) {
	clientPolls.Inc()
	body, h, err := c.get(ctx, "/repl/segments?from="+strconv.FormatUint(from, 10))
	if err != nil {
		if !errors.Is(err, ErrTruncatedHistory) && !errors.Is(err, ErrAhead) {
			clientPollErrors.Inc()
		}
		return nil, err
	}
	next, err := headerLSN(h, HeaderNextLSN)
	if err != nil {
		clientPollErrors.Inc()
		return nil, err
	}
	dec, err := NewDecoder(body)
	if err != nil {
		clientPollErrors.Inc()
		return nil, err
	}
	b := &Batch{PrimaryNext: next}
	want := from
	for {
		lsn, r, err := dec.Next()
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			clientPollErrors.Inc()
			return nil, err
		}
		if lsn != want {
			clientPollErrors.Inc()
			return nil, fmt.Errorf("repl: gap in stream: want LSN %d, got %d", want, lsn)
		}
		b.Records = append(b.Records, ShippedRecord{LSN: lsn, Record: r})
		want++
	}
}

// ValidateBase checks a primary URL flag value early, before the follower
// starts polling it.
func ValidateBase(base string) error {
	u, err := url.Parse(base)
	if err != nil {
		return fmt.Errorf("repl: primary URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("repl: primary URL %q: want http:// or https://", base)
	}
	if u.Host == "" {
		return fmt.Errorf("repl: primary URL %q: missing host", base)
	}
	return nil
}
