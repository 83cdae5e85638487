// Fleet-churn orchestration for load runs (tnload -churn): a parsed
// timeline of membership and snapshot operations executed against a live
// router (and its workers) while the open-loop generator drives traffic.
// The churn plan is what turns a load run into a rolling-restart rehearsal:
// drain a replica at t=2s, snapshot it at t=3s, restore it at t=6s — and
// the report shows what the tail did while the fleet changed under load.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
)

// churnOp is one scheduled fleet operation.
type churnOp struct {
	// At is the offset from the start of the churn run (which tnload aligns
	// with the start of the load run, warmup included).
	At time.Duration
	// Op is one of "join", "leave", "drain", "restore" (membership ops,
	// POSTed to the router's /admin/backends) or "snapshot" (POSTed to the
	// worker's own /admin/snapshot).
	Op string
	// URL is the replica base URL the operation targets.
	URL string
	// Path is the snapshot file path on the worker (snapshot op only;
	// empty uses the worker's configured -snapshot-file).
	Path string
}

// parseChurnPlan parses a churn plan string: ';'-separated operations, each
// "OFFSET OP URL [PATH]" with whitespace-separated fields, e.g.
//
//	2s join http://10.0.0.9:8083; 5s drain http://10.0.0.7:8081;
//	6s snapshot http://10.0.0.7:8081 /var/lib/tnserve/reg.snap;
//	9s restore http://10.0.0.7:8081
//
// Operations are returned sorted by offset.
func parseChurnPlan(plan string) ([]churnOp, error) {
	var ops []churnOp
	for _, part := range strings.Split(plan, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Fields(part)
		if len(fields) < 3 {
			return nil, fmt.Errorf("churn op %q: want \"OFFSET OP URL [PATH]\"", part)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("churn op %q: bad offset: %w", part, err)
		}
		if at < 0 {
			return nil, fmt.Errorf("churn op %q: negative offset", part)
		}
		op := churnOp{At: at, Op: fields[1], URL: fields[2]}
		switch op.Op {
		case "join", "leave", "drain", "restore":
			if len(fields) != 3 {
				return nil, fmt.Errorf("churn op %q: %s takes exactly a URL", part, op.Op)
			}
		case "snapshot":
			switch len(fields) {
			case 3:
			case 4:
				op.Path = fields[3]
			default:
				return nil, fmt.Errorf("churn op %q: snapshot takes a URL and an optional path", part)
			}
		default:
			return nil, fmt.Errorf("churn op %q: unknown op %q (want join, leave, drain, restore, or snapshot)", part, op.Op)
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("empty churn plan")
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops, nil
}

// churnResult is the outcome of one executed churn operation.
type churnResult struct {
	Op     churnOp
	Status int   // HTTP status of the admin call (0 on transport error)
	Err    error // non-nil when the operation did not succeed
}

// runChurn executes a churn plan against routerURL, sleeping each operation
// to its offset from the call time. Operations run strictly in order; an
// error is recorded and execution continues — an operator script wants the
// full picture, not the first failure. Context cancellation marks the
// remaining operations as canceled.
func runChurn(ctx context.Context, client *http.Client, routerURL string, ops []churnOp) []churnResult {
	if client == nil {
		client = http.DefaultClient
	}
	start := time.Now()
	results := make([]churnResult, 0, len(ops))
	for i, op := range ops {
		if wait := time.Until(start.Add(op.At)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			for _, rest := range ops[i:] {
				results = append(results, churnResult{Op: rest, Err: ctx.Err()})
			}
			return results
		}
		results = append(results, execChurnOp(ctx, client, routerURL, op))
	}
	return results
}

func execChurnOp(ctx context.Context, client *http.Client, routerURL string, op churnOp) churnResult {
	res := churnResult{Op: op}
	var target string
	var payload any
	if op.Op == "snapshot" {
		target = strings.TrimRight(op.URL, "/") + "/admin/snapshot"
		payload = serve.SnapshotRequest{Path: op.Path}
	} else {
		target = strings.TrimRight(routerURL, "/") + "/admin/backends"
		payload = serve.BackendsOp{Op: op.Op, URL: op.URL}
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		res.Err = err
		return res
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(raw))
	if err != nil {
		res.Err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		res.Err = err
		return res
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	res.Status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		res.Err = fmt.Errorf("%s %s: status %d: %s", op.Op, op.URL, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return res
}
