package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
)

// newClient returns an HTTP client holding at most conns connections per
// host, so the load never uses more connections than client goroutines.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// requestTimeout bounds one HTTP exchange and one job's life; a request
// that takes longer counts as failed.
const requestTimeout = 30 * time.Second

// drain discards and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // the connection is reused either way
	resp.Body.Close()
}

// exchange sends one request and returns the status and the whole body.
func exchange(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

// submitted is the 202 body of POST /v1/solve (node and gateway alike).
type submitted struct {
	JobID       string `json:"job_id"`
	Node        string `json:"node"`
	Fingerprint string `json:"fingerprint"`
}

// submit posts a solve and returns the accepted job; any status but 202
// is an error carrying the status and body.
func submit(c *http.Client, base string, body []byte) (submitted, error) {
	status, out, err := exchange(c, http.MethodPost, base+"/v1/solve", body)
	if err != nil {
		return submitted{}, err
	}
	if status != http.StatusAccepted {
		return submitted{}, fmt.Errorf("POST /v1/solve: status %d: %.200s", status, out)
	}
	var s submitted
	if err := json.Unmarshal(out, &s); err != nil || s.JobID == "" {
		return submitted{}, fmt.Errorf("POST /v1/solve: bad 202 body: %.200s", out)
	}
	return s, nil
}

// job fetches one job snapshot.
func job(c *http.Client, base, id string) (service.JobView, error) {
	status, out, err := exchange(c, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return service.JobView{}, err
	}
	if status != http.StatusOK {
		return service.JobView{}, fmt.Errorf("GET job %s: status %d: %.200s", id, status, out)
	}
	var v service.JobView
	if err := json.Unmarshal(out, &v); err != nil {
		return service.JobView{}, fmt.Errorf("GET job %s: %w", id, err)
	}
	return v, nil
}

// terminal reports whether a job state string is final.
func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// pollAfter is the wait before the next status poll of a job that has
// been out for elapsed: 2 ms at first, then a tenth of the elapsed time up
// to 20 ms, so a poll never adds more than about a tenth to a latency
// while a long job is not polled a hundred times.
func pollAfter(elapsed time.Duration) time.Duration {
	return min(max(elapsed/10, 2*time.Millisecond), 20*time.Millisecond)
}

// await polls a job until it reaches a terminal state or the request
// timeout passes.
func await(c *http.Client, base, id string) (service.JobView, error) {
	start := time.Now()
	for {
		time.Sleep(pollAfter(time.Since(start)))
		v, err := job(c, base, id)
		if err != nil {
			return v, err
		}
		if terminal(v.State) {
			return v, nil
		}
		if time.Since(start) > requestTimeout {
			return v, fmt.Errorf("job %s still %s after %s", id, v.State, requestTimeout)
		}
	}
}

// statsz fetches a daemon's /statsz into v.
func statsz(c *http.Client, base string, v any) error {
	status, out, err := exchange(c, http.MethodGet, base+"/statsz", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /statsz: status %d", status)
	}
	return json.Unmarshal(out, v)
}
