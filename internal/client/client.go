// Package client provides the retrying HTTP client the chaos harness and
// conformance engines use to talk to a server that is allowed to shed load.
// The serving tier's overload and degraded-mode answers are all "not now":
// 429 on a full admission semaphore or ingest queue, 503 on a query
// deadline or a poisoned WAL. A correct caller therefore retries with
// exponential backoff and full jitter, honors the server's Retry-After hint
// as a floor, and gives up only when its context's deadline budget cannot
// fund another attempt.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rangecube/internal/trace"
)

// Options tunes a Client. The zero value is usable: 5 attempts, 25ms base
// backoff doubling to a 2s cap, the default HTTP transport, global
// randomness for jitter.
type Options struct {
	// MaxAttempts is the total number of tries (first attempt included).
	MaxAttempts int
	// BaseBackoff is the jitter window before the second attempt; the
	// window doubles each retry up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HTTPClient overrides the transport (httptest servers, timeouts).
	HTTPClient *http.Client
	// Rand seeds the jitter for deterministic tests; nil uses the global
	// source. The client serializes access, so a shared *rand.Rand is safe.
	Rand *rand.Rand
}

// Client retries idempotent-by-construction requests against a shedding
// server. The cube API is safe to retry blindly: queries are read-only and
// an /update that was shed (429/503) was never enqueued, so re-submitting
// cannot double-apply. (A retry after an ambiguous transport error can
// double-apply an /update; a shard's record carries its seq, so a shard
// applies a re-sent one once.)
type Client struct {
	opt Options

	mu   sync.Mutex
	rand *rand.Rand
}

// New builds a client; see Options for zero-value defaults.
func New(opt Options) *Client {
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 5
	}
	if opt.BaseBackoff <= 0 {
		opt.BaseBackoff = 25 * time.Millisecond
	}
	if opt.MaxBackoff <= 0 {
		opt.MaxBackoff = 2 * time.Second
	}
	if opt.HTTPClient == nil {
		opt.HTTPClient = &http.Client{}
	}
	return &Client{opt: opt, rand: opt.Rand}
}

// retryable reports whether a status code means "try again later" rather
// than "your request is wrong".
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// maxRetryAfter caps how much backoff a server's Retry-After hint can
// demand. The hint is applied as a floor under the jittered backoff, so an
// unbounded value (a misconfigured proxy saying 86400, an HTTP-date far in
// the future) would stall the caller for the rest of its deadline budget
// instead of one more honest wait.
const maxRetryAfter = 30 * time.Second

// retryAfter parses a Retry-After header in either RFC 9110 form —
// delay-seconds ("7") or HTTP-date ("Mon, 02 Jan 2006 15:04:05 GMT", the
// form proxies and other servers emit) — clamped to [0, maxRetryAfter];
// 0 when absent or unparseable.
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	return parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
}

// parseRetryAfter is the testable core of retryAfter: the header value and
// the instant an HTTP-date is measured against.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		d = time.Duration(secs) * time.Second
	} else if at, err := http.ParseTime(v); err == nil {
		d = at.Sub(now) // a past date means "now": clamps to 0 below
	} else {
		return 0
	}
	if d < 0 {
		d = 0
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// jitter draws from [0, window) using the seeded source when configured.
func (c *Client) jitter(window time.Duration) time.Duration {
	if window <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rand != nil {
		return time.Duration(c.rand.Int63n(int64(window)))
	}
	return time.Duration(rand.Int63n(int64(window)))
}

// backoff computes the sleep before attempt n (n=1 is the first retry):
// full jitter over an exponentially growing window, with the server's
// Retry-After hint as a floor — the server knows its queue better than our
// exponent does.
func (c *Client) backoff(retry int, hint time.Duration) time.Duration {
	window := c.opt.BaseBackoff << (retry - 1)
	if window > c.opt.MaxBackoff || window <= 0 {
		window = c.opt.MaxBackoff
	}
	d := c.jitter(window)
	if hint > d {
		d = hint
	}
	return d
}

// Do issues method url with body, retrying shed responses and transport
// errors within ctx's deadline budget. On success (any non-retryable
// status, 4xx/5xx included) it returns the response with an unread body.
// When attempts or deadline run out it returns the last shed response (body
// drained and closed, so callers check StatusCode only) alongside a
// descriptive error; on pure transport failure the response is nil. A body
// goes as application/octet-stream; DoJSON's as application/json.
func (c *Client) Do(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	return c.do(ctx, method, url, body, "application/octet-stream")
}

func (c *Client) do(ctx context.Context, method, url string, body []byte, contentType string) (*http.Response, error) {
	var lastResp *http.Response
	var lastErr error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt, retryAfter(lastResp))
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
				// The budget cannot fund the wait; report what we have
				// instead of burning the caller's remaining time.
				break
			}
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return lastResp, ctx.Err()
			case <-t.C:
			}
		}
		// A fresh request per attempt: bodies are single-shot readers and
		// the previous attempt may have consumed one.
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", contentType)
		}
		// Correlation travels with the context: the request ID always, the
		// trace linkage headers only for traces being recorded. This is the
		// single choke point every sub-request in the tier passes through,
		// so a leader's query and the shard requests it fans out to share
		// one request ID and one span tree.
		trace.Inject(ctx, req.Header)
		resp, err := c.opt.HTTPClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr, lastResp = err, nil
			continue
		}
		if !retryable(resp.StatusCode) {
			return resp, nil
		}
		// Shed: keep the response for its Retry-After hint but release the
		// connection for the next attempt.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lastResp, lastErr = resp, fmt.Errorf("client: %s %s shed with %s", method, url, resp.Status)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: %s %s: no attempt completed", method, url)
	}
	return lastResp, fmt.Errorf("%w (after %d attempts)", lastErr, c.opt.MaxAttempts)
}

// DoJSON marshals in (when non-nil), performs Do, and decodes the response
// body into out (when non-nil and the status is 2xx). It returns the final
// status code; err is non-nil for transport failures, exhausted retries and
// non-2xx statuses alike.
func (c *Client) DoJSON(ctx context.Context, method, url string, in, out any) (int, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, err
		}
	}
	resp, err := c.do(ctx, method, url, body, "application/json")
	if err != nil {
		status := 0
		if resp != nil {
			status = resp.StatusCode
		}
		return status, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("client: %s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("client: decoding %s response: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}
