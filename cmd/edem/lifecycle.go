package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"

	"edem/internal/serve"
)

// cmdLifecycle drives a running `edem serve -lifecycle` instance
// through the detector lifecycle over its admin API: inspect drift and
// canary state (status), load a candidate bundle for shadow evaluation
// (shadow), route traffic to it (promote), abandon it (rollback),
// freeze the drift baseline (baseline) and label served verdicts
// (feedback).
func cmdLifecycle(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("lifecycle needs a verb: status, shadow, promote, rollback, baseline or feedback")
	}
	verb, rest := args[0], args[1:]
	fs := flag.NewFlagSet("lifecycle "+verb, flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8080", "base URL of the running edem serve instance")
	switch verb {
	case "status":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		return lifecycleStatus(*server)

	case "shadow":
		bundle := fs.String("bundle", "", "candidate bundle file to shadow-evaluate (from edem export)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *bundle == "" {
			return fmt.Errorf("lifecycle shadow needs -bundle FILE")
		}
		// The server resolves the path in its own working directory;
		// send an absolute path so the verb works from anywhere.
		path, err := filepath.Abs(*bundle)
		if err != nil {
			return err
		}
		var resp serve.ShadowResponse
		if err := adminCall(*server, "/admin/shadow", serve.ShadowRequest{Path: path}, &resp); err != nil {
			return err
		}
		fmt.Printf("shadowing %d detectors from %s (candidate generation %d)\n",
			len(resp.Detectors), resp.Path, resp.Generation)
		return nil

	case "promote":
		pct := fs.Int("percent", 100, "traffic percentage for the candidate (1-99: canary, 100: full promote)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		var resp serve.PromoteResponse
		if err := adminCall(*server, "/admin/promote", serve.PromoteRequest{Percent: *pct}, &resp); err != nil {
			return err
		}
		if resp.State == "canary" {
			fmt.Printf("canary: %d%% of traffic to candidate generation %d (live generation %d unchanged)\n",
				resp.Percent, resp.CandidateGeneration, resp.Generation)
		} else {
			fmt.Printf("promoted: candidate is now live generation %d (prior retained for rollback)\n",
				resp.Generation)
		}
		return nil

	case "rollback":
		reason := fs.String("reason", "", "reason recorded in the lifecycle status")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		var resp serve.RollbackResponse
		if err := adminCall(*server, "/admin/rollback", serve.RollbackRequest{Reason: *reason}, &resp); err != nil {
			return err
		}
		fmt.Printf("rolled back (%s): from %s, live generation now %d\n",
			resp.Reason, resp.From, resp.Generation)
		return nil

	case "baseline":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		var resp serve.LifecycleStatusResponse
		if err := adminCall(*server, "/admin/baseline", struct{}{}, &resp); err != nil {
			return err
		}
		fmt.Printf("drift baseline frozen at live generation %d\n", resp.LiveGeneration)
		return nil

	case "feedback":
		detector := fs.String("detector", "", "detector the labelled verdict came from")
		alarm := fs.Bool("alarm", false, "the verdict being labelled (true = it alarmed)")
		outcome := fs.String("outcome", "", "ground-truth label: true-alarm, false-alarm, missed-failure or benign")
		source := fs.String("source", "operator", "label source: operator or golden-run")
		sample := fs.String("sample", "", "comma-separated sampled state the verdict was for (optional)")
		note := fs.String("note", "", "free-form context (optional)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *detector == "" || *outcome == "" {
			return fmt.Errorf("lifecycle feedback needs -detector ID and -outcome LABEL")
		}
		req := serve.FeedbackRequest{
			Detector: *detector, Alarm: *alarm, Outcome: *outcome, Source: *source, Note: *note,
		}
		if *sample != "" {
			for _, fv := range strings.Split(*sample, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(fv), 64)
				if err != nil {
					return fmt.Errorf("lifecycle feedback: bad -sample value %q: %w", fv, err)
				}
				req.Sample = append(req.Sample, v)
			}
		}
		var resp serve.FeedbackResponse
		if err := adminCall(*server, "/v1/feedback", req, &resp); err != nil {
			return err
		}
		fmt.Printf("recorded %s/%s for %s (generation %d)\n", *outcome, *source, *detector, resp.Generation)
		return nil

	default:
		return fmt.Errorf("unknown lifecycle verb %q (want status, shadow, promote, rollback, baseline or feedback)", verb)
	}
}

// lifecycleStatus renders GET /admin/lifecycle as the operator view:
// state machine position, canary window, drift table, and which
// detectors the drift verdicts say to re-refine.
func lifecycleStatus(base string) error {
	var st serve.LifecycleStatusResponse
	if err := adminCall(base, "/admin/lifecycle", nil, &st); err != nil {
		return err
	}
	if !st.Enabled {
		fmt.Println("lifecycle: disabled (start serve with -lifecycle DIR)")
		return nil
	}
	fmt.Printf("state:     %s\n", st.State)
	fmt.Printf("live:      generation %d  %s\n", st.LiveGeneration, st.LivePath)
	if st.CandidatePath != "" {
		fmt.Printf("candidate: generation %d  %s", st.CandidateGeneration, st.CandidatePath)
		if st.CanaryPercent > 0 {
			fmt.Printf("  (serving %d%% of its traffic)", st.CanaryPercent)
		}
		fmt.Println()
	}
	if st.PriorPath != "" {
		fmt.Printf("prior:     generation %d  %s  (rollback target)\n", st.PriorGeneration, st.PriorPath)
	}
	w := st.Window
	fmt.Printf("window:    %d requests / %d samples dual-evaluated, %d disagreements (rate %.3f), alarm regress %+.3f, %d canary-served\n",
		w.Requests, w.Samples, w.Disagreements, w.DisagreeRate(), w.AlarmRegress(), w.CanaryRequests)
	fmt.Printf("feedback:  %d records journalled this process\n", st.FeedbackRecords)
	if st.LastRollback != "" {
		fmt.Printf("rollback:  %s\n", st.LastRollback)
	}

	if !st.HasBaseline {
		fmt.Println("drift:     no baseline frozen — run `edem lifecycle baseline` once traffic looks healthy")
		return nil
	}
	fmt.Printf("\n%-12s %10s %10s %12s %10s  %s\n",
		"DETECTOR", "BASE-EVALS", "CUR-EVALS", "ALARM-DELTA", "FEAT-DIST", "VERDICT")
	var rerefine []string
	for _, row := range st.Drift {
		fmt.Printf("%-12s %10d %10d %12.3f %10.3f  %s\n",
			row.Detector, row.BaseEvals, row.CurEvals, row.AlarmDelta, row.FeatureDistance, row.Verdict)
		if row.Drifted() {
			rerefine = append(rerefine, row.Detector)
		}
	}
	if len(rerefine) > 0 {
		fmt.Printf("\nre-refine: %s\n", strings.Join(rerefine, ", "))
		fmt.Printf("  edem export -dataset %s -out candidate.json   # re-learn from fresh campaigns\n",
			strings.Join(rerefine, ","))
		fmt.Printf("  edem lifecycle shadow -bundle candidate.json  # then canary-promote when clean\n")
	}
	return nil
}

// adminCall sends one request to the serve admin API through
// serve.Do: a GET when in is nil, otherwise a POST of in as JSON. The
// 2xx reply decodes into out; any other status comes back as a
// *serve.StatusError carrying the server's message.
func adminCall(base, path string, in, out any) error {
	method, body := http.MethodGet, []byte(nil)
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, strings.TrimRight(base, "/")+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", serve.ContentTypeJSON)
	_, err = serve.Do(nil, req, out)
	return err
}
