package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// APIError is a non-2xx daemon response, decoded. It preserves the
// machine-readable kind and the backpressure hint so callers can branch on
// Retryable/RetryAfter instead of parsing strings.
type APIError struct {
	Status     int
	Kind       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: %d %s: %s", e.Status, e.Kind, e.Message)
}

// Retryable reports whether the request may succeed if simply retried
// later: backpressure (shed) and timeouts, but not invalid input,
// infeasibility, or a draining daemon.
func (e *APIError) Retryable() bool {
	return e.Kind == "shed" || e.Kind == "timeout"
}

// Client is a daemon client with bounded retry/backoff. Shed responses are
// retried after the server's Retry-After hint (exponential backoff with the
// hint as the floor); other errors return immediately.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts for retryable errors (default 4).
	MaxRetries int
	// Backoff is the floor of the first retry delay when the server sent no
	// hint (default 100ms); it doubles per attempt.
	Backoff time.Duration
	// Header is attached to every request (the churn harness injects its
	// fault headers here).
	Header http.Header
}

func (c *Client) retries() int {
	if c.MaxRetries <= 0 {
		return 4
	}
	return c.MaxRetries
}

func (c *Client) backoff() time.Duration {
	if c.Backoff <= 0 {
		return 100 * time.Millisecond
	}
	return c.Backoff
}

// do runs one JSON round-trip with retry/backoff, decoding a 2xx body into
// out (ignored when out is nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var body *requestBody
	if in != nil {
		var err error
		if body, err = encodeRequest(in); err != nil {
			return err
		}
		defer body.release()
	}
	delay := c.backoff()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, nil)
		if err != nil {
			return err
		}
		if body != nil {
			req.Body, req.GetBody, req.ContentLength = body.reader(), body.getBody, int64(body.buf.Len())
		}
		req.Header.Set("Content-Type", "application/json")
		for k, vs := range c.Header {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := httpc.Do(req)
		if err != nil {
			return err
		}
		apiErr := decodeResponse(resp, out)
		if apiErr == nil {
			return nil
		}
		if !apiErr.Retryable() || attempt >= c.retries() {
			return apiErr
		}
		wait := delay
		if apiErr.RetryAfter > wait {
			wait = apiErr.RetryAfter
		}
		delay *= 2
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// requestBody is a request encoded once into a pooled buffer and read by
// each attempt through a reader of its own. The transport may read and close
// a request's body after Do has returned, so the buffer goes back to the pool
// only when do and every reader given out are done with it.
type requestBody struct {
	buf     bytes.Buffer
	refs    atomic.Int32
	getBody func() (io.ReadCloser, error) // reader as a func value, made once
}

var requestBodies = sync.Pool{New: func() any {
	b := new(requestBody)
	b.getBody = func() (io.ReadCloser, error) { return b.reader(), nil }
	return b
}}

// encodeRequest encodes in, compactly and without escaping HTML, into a
// pooled body that the caller holds until it calls release.
func encodeRequest(in any) (*requestBody, error) {
	b := requestBodies.Get().(*requestBody)
	b.refs.Store(1)
	enc := json.NewEncoder(&b.buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(in); err != nil {
		b.release()
		return nil, err
	}
	return b, nil
}

// reader returns a new reader over the body; closing it gives up its hold.
func (b *requestBody) reader() io.ReadCloser {
	b.refs.Add(1)
	return &bodyReader{body: b}
}

func (b *requestBody) release() {
	if b.refs.Add(-1) > 0 {
		return
	}
	if b.buf.Cap() <= maxPooledBody {
		all := b.buf.Bytes()
		clear(all[:cap(all)])
		b.buf.Reset()
		requestBodies.Put(b)
	}
}

// bodyReader reads a requestBody. Read and Close exclude each other, so once
// Close returns nothing reads the buffer it gave back.
type bodyReader struct {
	mu   sync.Mutex
	body *requestBody // nil once closed
	off  int
}

func (r *bodyReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.body == nil {
		return 0, errBodyClosed
	}
	rest := r.body.buf.Bytes()[r.off:]
	if len(rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, rest)
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error {
	r.mu.Lock()
	b := r.body
	r.body = nil
	r.mu.Unlock()
	if b != nil {
		b.release()
	}
	return nil
}

var errBodyClosed = errors.New("serve: request body read after close")

// maxPresizedBody caps the buffer readBody allocates on a Content-Length's
// word alone; a longer body is read by growing.
const maxPresizedBody = 64 << 20

// readBody reads the whole body into buf, sized up front to the declared
// length when the server sent one (the daemon always does).
func readBody(resp *http.Response, buf *bytes.Buffer) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxPresizedBody {
		buf.Grow(int(n))
		raw := buf.AvailableBuffer()[:n]
		_, err := io.ReadFull(resp.Body, raw)
		return raw, err
	}
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// decodeResponse reads and closes the body: nil on 2xx (out filled), an
// *APIError otherwise. A 2xx whose body cannot be read to its end or does not
// decode is an error of kind "bad-response", never a silently zero out. The
// body passes through a pooled buffer; what out keeps of it is copied. A body
// that carries a compile's answer is read by the one-pass answerReader
// (decode.go), because it is large and mostly escaped code text; every other
// body (errors, status, events, tables, metrics, health) is small and goes
// through encoding/json.
func decodeResponse(resp *http.Response, out any) *APIError {
	defer resp.Body.Close()
	buf := wireBuf()
	defer releaseWireBuf(buf)
	raw, err := readBody(resp, buf)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if err == nil && out != nil {
			switch v := out.(type) {
			case *CompileResponse:
				err = decodeCompileResponse(raw, v)
			case *SessionResponse:
				err = decodeSessionResponse(raw, v)
			default:
				err = json.Unmarshal(raw, out)
			}
		}
		if err != nil {
			return &APIError{Status: resp.StatusCode, Kind: "bad-response", Message: err.Error()}
		}
		return nil
	}
	apiErr := &APIError{Status: resp.StatusCode, Kind: "unknown", Message: string(raw)}
	var body ErrorResponse
	if json.Unmarshal(raw, &body) == nil && body.Kind != "" {
		apiErr.Kind = body.Kind
		apiErr.Message = body.Error
		apiErr.RetryAfter = time.Duration(body.RetryAfterMs) * time.Millisecond
	}
	if h := resp.Header.Get("Retry-After"); h != "" && apiErr.RetryAfter == 0 {
		if secs, err := strconv.ParseFloat(h, 64); err == nil {
			apiErr.RetryAfter = time.Duration(secs * float64(time.Second))
		}
	}
	return apiErr
}

// Compile runs a one-shot compile.
func (c *Client) Compile(ctx context.Context, req CompileRequest) (CompileResponse, error) {
	var out CompileResponse
	err := c.do(ctx, http.MethodPost, "/v1/compile", req, &out)
	return out, err
}

// NewSession creates a tenant session (compiling its base program).
func (c *Client) NewSession(ctx context.Context, req CompileRequest) (SessionResponse, error) {
	var out SessionResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &out)
	return out, err
}

// Status fetches a session's current state.
func (c *Client) Status(ctx context.Context, id string) (SessionStatus, error) {
	var out SessionStatus
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &out)
	return out, err
}

// Events enqueues fault/recovery events (asynchronous; returns the covering
// generation).
func (c *Client) Events(ctx context.Context, id string, events []WireEvent) (int64, error) {
	var out EventsResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/events", EventsRequest{Events: events}, &out)
	return out.Generation, err
}

// Recompile enqueues events and blocks until the session has converged on
// them, returning the resulting status.
func (c *Client) Recompile(ctx context.Context, id string, events []WireEvent) (SessionStatus, error) {
	var out SessionStatus
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/recompile", EventsRequest{Events: events}, &out)
	return out, err
}

// Tables streams control-plane table entries into a session.
func (c *Client) Tables(ctx context.Context, id string, entries []TableEntry) (int, error) {
	var out TablesResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/tables", TablesRequest{Entries: entries}, &out)
	return out.Applied, err
}

// Close deletes a session.
func (c *Client) Close(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Metrics fetches the daemon counters.
func (c *Client) Metrics(ctx context.Context) (MetricsSnapshot, error) {
	var out MetricsSnapshot
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &out)
	return out, err
}

// Health fetches liveness.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var out Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &out)
	return out, err
}
