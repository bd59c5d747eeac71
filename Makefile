GO ?= go

.PHONY: build test tier1 verify fuzz bench bench-collect bench-pins docs-check figures-check serve-smoke online-smoke profile-smoke forecast-smoke mitigate-smoke fleet-smoke shadow-smoke trace clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# tier1 is the roadmap's acceptance gate.
tier1: build test

# verify adds static analysis and the race detector — required before any
# change to internal/obs or the instrumentation hot paths, since a shared
# Sink is mutated from par.Map worker goroutines. The focused -count=1 race
# pass re-runs the concurrency-critical packages uncached (par's fan-out,
# obs's shared sink, fault's injection across parallel variant runs, online's
# loop promoting through the live server under concurrent predictions).
# cmd/quantbench is a module of its own, so the root ./... never compiles it;
# the last line vets and tests it, catching a break in an internal API it
# calls before the benchmark runs, and bench-pins runs the output checks the
# harness pins.
verify: docs-check figures-check serve-smoke online-smoke profile-smoke forecast-smoke mitigate-smoke fleet-smoke shadow-smoke bench-pins
	$(GO) vet ./...
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -count=1 ./internal/par ./internal/obs ./internal/fault ./internal/ml ./internal/serve ./internal/online ./internal/mitigate ./internal/fleet ./internal/shadow
	cd cmd/quantbench && $(GO) vet ./... && $(GO) test ./...

# fuzz runs each fuzz target for 10s: arbitrary /v1/predict and /v1/forecast
# bodies must never panic the handler or answer a 5xx, any framework or
# forecaster file a loader accepts must serve a well-shaped input without
# panicking, any dataset file dataset.Load accepts must train for an epoch
# without panicking, any fault list fault.ParseSpecs accepts must run a
# small scenario to completion or MaxTime without panicking, and any trace
# trace.Read accepts must be non-negative and survive write → read unchanged,
# as must any valid record. Not part of verify (it is open-ended by nature); crashers land in
# the package's testdata/fuzz and then replay in every go test run. The
# minimize caps keep the 1 MiB oversized seed, and the model files whose
# every minimization step is a file round trip, from stalling the run.
fuzz:
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzHandlePredict$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzHandleForecast$$' -fuzztime 10s -fuzzminimizetime 2s -parallel 2
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzLoadFramework$$' -fuzztime 10s -fuzzminimizetime 50x -parallel 2
	$(GO) test ./internal/forecast -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s -fuzzminimizetime 50x -parallel 2
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s -fuzzminimizetime 50x -parallel 2
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzParseSpecs$$' -fuzztime 10s -fuzzminimizetime 50x -parallel 2
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s -fuzzminimizetime 50x -parallel 2

bench:
	$(GO) test -bench BenchmarkRun -benchmem -count 5 -run '^$$'

# bench-collect times one reduced-scale Figure 3(a) study (IO500 collection
# plus training) five times, reporting bytes, allocations and gcs/op — the
# garbage-collection cost of a collection.
bench-collect:
	$(GO) test -bench '^BenchmarkFigure3aIO500$$' -count 5 -run '^$$'

# docs-check gates formatting, static analysis, and documentation integrity:
# every relative markdown link and internal/... path reference in the repo's
# *.md files must point at something that exists, every exported pkg.Name
# in a code span or go block must name a declaration of that internal (or the
# root) package, and every internal package must appear in ARCHITECTURE.md's
# Layering list with no non-test import of a package listed below it.
docs-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck .

# figures-check regenerates out/ at the documented defaults (about a minute
# on two cores) and fails if a committed top-level panel changed, or if
# cmd/figures wrote a top-level .txt, .csv or .svg panel that is not
# committed. out/ is in .gitignore, so the second check lists ignored files
# too, and a new panel is committed with git add -f.
figures-check:
	$(GO) run ./cmd/figures -scale 1 -epochs 60 -seed 42 -out out > /dev/null
	@git diff --exit-code --stat -- out/ || \
		{ echo "figures-check: committed panels changed"; exit 1; }
	@new=$$(git ls-files --others -- out | grep -E '^out/[^/]+\.(txt|csv|svg)$$'); \
	[ -z "$$new" ] || { echo "figures-check: uncommitted panels:"; echo "$$new"; exit 1; }
	@echo "figures-check: OK"

# serve-smoke boots quantserve on a synthetic model, exercises /v1/healthz,
# /v1/predict, /v1/stats and /v1/forecast over real HTTP, and checks it exits
# cleanly on SIGTERM — an end-to-end probe of the serving binary that needs no
# model file.
SERVE_SMOKE_ADDR ?= 127.0.0.1:18123
serve-smoke:
	@mkdir -p out
	$(GO) build -o out/quantserve ./cmd/quantserve
	@./out/quantserve -smoke -addr $(SERVE_SMOKE_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	ok=0; for i in $$(seq 1 50); do \
		curl -sf http://$(SERVE_SMOKE_ADDR)/v1/healthz >/dev/null 2>&1 && { ok=1; break; }; \
		sleep 0.1; done; \
	[ $$ok = 1 ] || { echo "serve-smoke: server never came up"; exit 1; }; \
	curl -sf http://$(SERVE_SMOKE_ADDR)/v1/healthz | grep -q '"status":"ok"' || \
		{ echo "serve-smoke: bad /v1/healthz"; exit 1; }; \
	curl -sf -X POST http://$(SERVE_SMOKE_ADDR)/v1/predict \
		-d '{"matrix":[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]]}' | grep -q '"class"' || \
		{ echo "serve-smoke: bad /v1/predict"; exit 1; }; \
	curl -sf http://$(SERVE_SMOKE_ADDR)/v1/stats | grep -q 'serve/requests' || \
		{ echo "serve-smoke: bad /v1/stats"; exit 1; }; \
	curl -sf -X POST http://$(SERVE_SMOKE_ADDR)/v1/forecast \
		-d '{"history":[[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]],[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]],[[0,0,0,0,0],[0,0,0,0,0],[0,0,0,0,0]]]}' \
		| grep -q '"lead_windows"' || { echo "serve-smoke: bad /v1/forecast"; exit 1; }; \
	kill -TERM $$pid; wait $$pid || { echo "serve-smoke: unclean exit"; exit 1; }; \
	trap - EXIT; echo "serve-smoke: OK"

# online-smoke runs the deterministic continuous-learning episode end to end:
# drift detected on a fault-injected stream, warm-started retrain, gated
# promotion through the server's hot-reload under concurrent load, and a
# forced rejection with rollback.
online-smoke:
	$(GO) run ./cmd/quantonline -smoke

# bench-pins runs the benchmark harness's two correctness workloads once
# each. study-io500 checks the Figure 3(a) dataset digest and confusion
# matrix; online-retrain checks the online incumbent's weight digest and the
# decision timeline digest. No other check covers these pins: a training or
# collection change that moves one fails here, not first in a benchmark run.
# quantbench prints "correct":false and exits 1 when a check fails. About
# 30 s with a cold harness build (bench.sh builds under .bench_build/), and
# under 10 s per workload once built.
bench-pins:
	bash cmd/quantbench/bench.sh --workload study-io500 --seed 42 --seconds 5 --trace 0
	bash cmd/quantbench/bench.sh --workload online-retrain --seed 42 --seconds 5 --trace 0

# profile-smoke runs the cross-profile transfer study end to end at tiny
# scale: per-profile datasets on three hardware backends, in-domain training,
# zero-shot and warm-started fine-tune transfer, plus a per-profile mini
# interference matrix — an acceptance probe for the HardwareProfile API.
profile-smoke:
	@mkdir -p out/profile-smoke
	$(GO) run ./cmd/figures -only transfer -scale 0.08 -epochs 6 \
		-out out/profile-smoke
	@grep -q 'zero_shot' out/profile-smoke/transfer.csv || \
		{ echo "profile-smoke: transfer.csv missing zero-shot rows"; exit 1; }
	@echo "profile-smoke: OK"

# forecast-smoke runs the lead-time study end to end at tiny scale: collect
# a long-window stream with delayed interference arrivals, train the k=0
# classifier and one forecast head per horizon, and check the emitted curve
# has the baseline row, every horizon, and the determinism digest.
forecast-smoke:
	@mkdir -p out/forecast-smoke
	$(GO) run ./cmd/figures -only leadtime -scale 0.08 -epochs 6 \
		-profiles paper -out out/forecast-smoke
	@grep -q '^paper,0,' out/forecast-smoke/leadtime.csv || \
		{ echo "forecast-smoke: leadtime.csv missing baseline row"; exit 1; }
	@for k in 1 2 4; do grep -q "^paper,$$k," out/forecast-smoke/leadtime.csv || \
		{ echo "forecast-smoke: leadtime.csv missing horizon $$k"; exit 1; }; done
	@grep -q '^digest,paper,' out/forecast-smoke/leadtime.csv || \
		{ echo "forecast-smoke: leadtime.csv missing weights digest"; exit 1; }
	@echo "forecast-smoke: OK"

# mitigate-smoke runs the policy × fault × workload actuation study end to
# end at tiny scale and compares the emitted CSV byte-for-byte against the
# committed golden (internal/experiments/testdata/mitigation_golden.csv) —
# the determinism pin for the whole predict → forecast → policy → actuate
# loop. The flags here MUST match tinyMitigationConfig in
# internal/experiments/mitigation_test.go; refresh the golden with
# UPDATE_GOLDEN=1 go test ./internal/experiments -run TestMitigationDeterministic.
mitigate-smoke:
	@mkdir -p out/mitigate-smoke
	$(GO) run ./cmd/figures -only mitigation -scale 0.08 -epochs 6 -seed 3 \
		-reps 1 -out out/mitigate-smoke
	@cmp out/mitigate-smoke/mitigation.csv \
		internal/experiments/testdata/mitigation_golden.csv || \
		{ echo "mitigate-smoke: CSV diverged from golden"; exit 1; }
	@echo "mitigate-smoke: OK"

# fleet-smoke runs the deterministic 3-replica fleet episode twice,
# byte-compares the two outputs, and compares them against the committed
# golden (internal/fleet/testdata/smoke_golden.txt): rendezvous routing with
# failover across a mid-episode kill (zero dropped requests), a failed
# rolling promotion that rolls back to the incumbent digest, a restart with
# reservoir restore, the order-independent merged retrain, and a clean
# fleet-wide rollout. The printed timeline carries replica names and weight
# digests only, so any nondeterminism in routing, merging, or training shows
# up as a diff between the runs, and any deterministic change to the episode
# as a diff against the golden.
fleet-smoke:
	@mkdir -p out/fleet-smoke
	$(GO) run ./cmd/quantfleet -smoke > out/fleet-smoke/run1.txt
	$(GO) run ./cmd/quantfleet -smoke > out/fleet-smoke/run2.txt
	@cmp out/fleet-smoke/run1.txt out/fleet-smoke/run2.txt || \
		{ echo "fleet-smoke: episode diverged between runs"; exit 1; }
	@cmp out/fleet-smoke/run1.txt internal/fleet/testdata/smoke_golden.txt || \
		{ echo "fleet-smoke: episode diverged from golden"; exit 1; }
	@grep -q 'dropped 0' out/fleet-smoke/run1.txt || \
		{ echo "fleet-smoke: requests were dropped"; exit 1; }
	@grep -q 'order-independent: ok' out/fleet-smoke/run1.txt || \
		{ echo "fleet-smoke: merge order changed the corpus digest"; exit 1; }
	@echo "fleet-smoke: OK"

# shadow-smoke runs the shadow-evaluation episode twice, byte-compares the
# two outputs, and compares them against the committed golden
# (internal/fleet/testdata/shadow_golden.txt): one weak champion served by
# three replicas with a shared mirror tap, three challengers scored on the
# mirrored live traffic, the N-way gate promoting exactly the margin-winning
# challenger fleet-wide, and a forced-reject drill epoch that keeps the new
# incumbent. Scores, digests, and the routing timeline are all in the
# output, so any nondeterminism in mirroring, scoring, or gating shows up as
# a diff between the runs, and any deterministic change as a diff against
# the golden.
shadow-smoke:
	@mkdir -p out/shadow-smoke
	$(GO) run ./cmd/quantfleet -shadow > out/shadow-smoke/run1.txt
	$(GO) run ./cmd/quantfleet -shadow > out/shadow-smoke/run2.txt
	@cmp out/shadow-smoke/run1.txt out/shadow-smoke/run2.txt || \
		{ echo "shadow-smoke: episode diverged between runs"; exit 1; }
	@cmp out/shadow-smoke/run1.txt internal/fleet/testdata/shadow_golden.txt || \
		{ echo "shadow-smoke: episode diverged from golden"; exit 1; }
	@grep -q '^verdict: promote ' out/shadow-smoke/run1.txt || \
		{ echo "shadow-smoke: no challenger was promoted"; exit 1; }
	@grep -q '^shadow-promote ' out/shadow-smoke/run1.txt || \
		{ echo "shadow-smoke: promotion missing from the timeline"; exit 1; }
	@grep -q '^verdict: keep incumbent' out/shadow-smoke/run1.txt || \
		{ echo "shadow-smoke: forced-reject drill did not keep the incumbent"; exit 1; }
	@grep -q 'dropped 0 labeled 192 unmatched 0' out/shadow-smoke/run1.txt || \
		{ echo "shadow-smoke: mirror shed or missed traffic"; exit 1; }
	@echo "shadow-smoke: OK"

# trace produces a sample Chrome trace-event file; open trace.json in
# about:tracing or https://ui.perfetto.dev.
trace:
	$(GO) run ./cmd/simrun -target ior-easy-write -scale 0.2 \
		-interference ior-easy-read -instances 2 \
		-trace-events trace.json -stats

clean:
	rm -f trace.json
	rm -rf out/
