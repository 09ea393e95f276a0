package server

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/query"
	"repro/internal/view"
)

// rowBufSize is the row writer's fixed buffer: a body larger than this
// reaches the client in pieces of at most rowBufSize bytes, so a multi-
// megabyte answer costs the server one buffer, not one body.
const rowBufSize = 32 << 10

// rowSlack is room enough for the longest int64 or float64 the writer
// formats.
const rowSlack = 32

var rowBufs = sync.Pool{New: func() any { return new([rowBufSize]byte) }}

// rowWriter streams one row-bearing response body — /query, a paged
// /query, /views/{name} — straight to the ResponseWriter. It writes exactly
// the bytes json.NewEncoder(w).Encode writes for the same response struct
// (HTML-safe string escaping, null for a nil slice, omitempty fields, the
// trailing newline), fields in struct order, without reflection and
// without holding the body: tuples go through strconv.AppendInt into one
// pooled buffer that is flushed whenever it fills.
//
// Pages and view reads hold their tuples as a [][]int64 already. An
// unpaged /query answer does not: its rows go from the last plan node's own
// form (a final fold's groups, a star's rows, a cross product) through the
// query layer's head projector (query.Result.EachRow) straight into the
// buffer, so the answer is never copied into a block of its own.
type rowWriter struct {
	w   io.Writer
	arr *[rowBufSize]byte
	// buf holds the pending bytes, in arr — except while one row wider than
	// the whole buffer (over 1 500 values) is pending, which appending moves
	// to storage of its own until the next flush.
	buf []byte
	err error // first write error; later output is dropped
}

// rowBody is a row-bearing response: it writes itself through a rowWriter.
type rowBody interface {
	encode(rw *rowWriter)
}

// writeRows sends body as a 200, streamed through one pooled buffer.
func writeRows(w http.ResponseWriter, body rowBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	rw := rowWriter{w: w, arr: rowBufs.Get().(*[rowBufSize]byte)}
	rw.buf = rw.arr[:0]
	body.encode(&rw)
	rw.raw("\n")
	rw.flush()
	rowBufs.Put(rw.arr)
}

// flush hands the pending bytes to the underlying writer.
func (rw *rowWriter) flush() {
	if len(rw.buf) > 0 && rw.err == nil {
		_, rw.err = rw.w.Write(rw.buf)
	}
	rw.buf = rw.arr[:0]
}

// room flushes unless n more bytes fit in the buffer.
func (rw *rowWriter) room(n int) {
	if rowBufSize-len(rw.buf) < n {
		rw.flush()
	}
}

// raw writes s verbatim, in buffer-sized pieces if it is long.
func (rw *rowWriter) raw(s string) {
	for len(s) > 0 {
		if len(rw.buf) >= rowBufSize {
			rw.flush()
		}
		n := copy(rw.buf[len(rw.buf):rowBufSize], s)
		rw.buf, s = rw.buf[:len(rw.buf)+n], s[n:]
	}
}

func (rw *rowWriter) i64(v int64) {
	rw.room(rowSlack)
	rw.buf = strconv.AppendInt(rw.buf, v, 10)
}

func (rw *rowWriter) u64(v uint64) {
	rw.room(rowSlack)
	rw.buf = strconv.AppendUint(rw.buf, v, 10)
}

func (rw *rowWriter) boolean(v bool) {
	if v {
		rw.raw("true")
	} else {
		rw.raw("false")
	}
}

// f64 formats f as encoding/json does: like ES6 number-to-string, plain
// decimal between 1e-6 and 1e21, exponent form (unpadded) outside. f is a
// measured duration, never NaN or infinite.
func (rw *rowWriter) f64(f float64) {
	rw.room(rowSlack)
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(rw.buf, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	rw.buf = b
}

const hexDigits = "0123456789abcdef"

// str writes s as a JSON string with encoding/json's HTML-safe escaping:
// '<', '>', '&', U+2028 and U+2029 as \u escapes, control bytes as short or
// \u00XX escapes, invalid UTF-8 as \ufffd.
func (rw *rowWriter) str(s string) {
	rw.raw(`"`)
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			rw.raw(s[start:i])
			rw.room(6)
			switch b {
			case '\\', '"':
				rw.buf = append(rw.buf, '\\', b)
			case '\b':
				rw.buf = append(rw.buf, '\\', 'b')
			case '\f':
				rw.buf = append(rw.buf, '\\', 'f')
			case '\n':
				rw.buf = append(rw.buf, '\\', 'n')
			case '\r':
				rw.buf = append(rw.buf, '\\', 'r')
			case '\t':
				rw.buf = append(rw.buf, '\\', 't')
			default:
				rw.buf = append(rw.buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			rw.raw(s[start:i])
			rw.raw(`\ufffd`)
		case c == '\u2028' || c == '\u2029':
			rw.raw(s[start:i])
			rw.room(6)
			rw.buf = append(rw.buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	rw.raw(s[start:])
	rw.raw(`"`)
}

func (rw *rowWriter) strs(ss []string) {
	if ss == nil {
		rw.raw("null")
		return
	}
	rw.raw("[")
	for i, s := range ss {
		if i > 0 {
			rw.raw(",")
		}
		rw.str(s)
	}
	rw.raw("]")
}

// tuples writes a row array held in memory.
func (rw *rowWriter) tuples(ts [][]int64) {
	if ts == nil {
		rw.raw("null")
		return
	}
	rw.raw("[")
	for i, t := range ts {
		rw.row(i > 0, t)
	}
	rw.raw("]")
}

// result writes res's rows as they are projected from its answer, never
// null: an unpaged /query answer is an array even when empty.
func (rw *rowWriter) result(res *query.Result) {
	rw.raw("[")
	first := true
	res.EachRow(func(t []int64) {
		rw.row(!first, t)
		first = false
	})
	rw.raw("]")
}

// row writes one tuple, after a separating comma when sep is set: the one
// loop every answer row passes through. A row reserves its worst case once
// — brackets and separators plus 20 digits per value — and then appends
// without checks.
func (rw *rowWriter) row(sep bool, t []int64) {
	rw.room(3 + 21*len(t))
	b := rw.buf
	if sep {
		b = append(b, ',')
	}
	if t == nil {
		rw.buf = append(b, "null"...)
		return
	}
	b = append(b, '[')
	for j, v := range t {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	rw.buf = append(b, ']')
}

// resultBody is an unpaged /query response: q's fields, with the tuples
// read from res as they are written (q.Tuples is unused). The engine has
// run every check that can fail before the body is built, so the rows it
// streams can no longer turn into an error status.
type resultBody struct {
	q   queryResponse
	res *query.Result
}

func (b *resultBody) encode(rw *rowWriter) { b.q.write(rw, b.res) }

// encode writes q's fields in struct order, as encoding/json would.
func (q *queryResponse) encode(rw *rowWriter) { q.write(rw, nil) }

// write is encode with the tuples taken from res instead of q.Tuples when
// res is non-nil.
func (q *queryResponse) write(rw *rowWriter, res *query.Result) {
	rw.raw(`{"columns":`)
	rw.strs(q.Columns)
	rw.raw(`,"tuples":`)
	if res != nil {
		rw.result(res)
	} else {
		rw.tuples(q.Tuples)
	}
	rw.raw(`,"rows":`)
	rw.i64(int64(q.Rows))
	rw.raw(`,"plan":`)
	rw.str(q.Plan)
	rw.raw(`,"plan_cached":`)
	rw.boolean(q.PlanCache)
	if q.ResultCache {
		rw.raw(`,"result_cached":true`)
	}
	rw.raw(`,"elapsed_ms":`)
	rw.f64(q.ElapsedMs)
	if q.NextCursor != "" {
		rw.raw(`,"next_cursor":`)
		rw.str(q.NextCursor)
	}
	rw.raw("}")
}

// encode writes v's fields in struct order, as encoding/json would.
func (v *viewResultResponse) encode(rw *rowWriter) {
	rw.raw(`{"name":`)
	rw.str(v.Name)
	rw.raw(`,"query":`)
	rw.str(v.Query)
	rw.raw(`,"columns":`)
	rw.strs(v.Columns)
	rw.raw(`,"tuples":`)
	rw.tuples(v.Tuples)
	rw.raw(`,"rows":`)
	rw.i64(int64(v.Rows))
	rw.raw(`,"freshness":`)
	rw.freshness(&v.Freshness)
	if v.NextCursor != "" {
		rw.raw(`,"next_cursor":`)
		rw.str(v.NextCursor)
	}
	rw.raw("}")
}

// freshness writes f's fields in struct order, as encoding/json would.
func (rw *rowWriter) freshness(f *view.Freshness) {
	rw.raw(`{"mode":`)
	rw.str(f.Mode)
	if f.Reason != "" {
		rw.raw(`,"reason":`)
		rw.str(f.Reason)
	}
	rw.raw(`,"stale":`)
	rw.boolean(f.Stale)
	rw.raw(`,"pending_batches":`)
	rw.i64(int64(f.PendingBatches))
	rw.raw(`,"updates":`)
	rw.u64(f.Updates)
	rw.raw(`,"last_maintain_ns":`)
	rw.i64(f.LastMaintainNs)
	if len(f.Strategies) > 0 {
		rw.raw(`,"strategies":`)
		rw.strs(f.Strategies)
	}
	rw.raw("}")
}
