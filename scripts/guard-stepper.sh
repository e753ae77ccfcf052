#!/bin/sh
# guard-stepper.sh — keep the level search, the public entry points and
# the cost model unified.
#
# 1. The former bottomUp/topDown drivers are merged into one
#    direction-agnostic level sequencer (internal/core/stepper.go). The
#    guard fails if direction-specific entry points reappear: no Go file may
#    call a function named bottomUp or topDown (the per-direction expansion
#    hooks are named expandBottom/expandTop and live behind the sequencer),
#    and nothing may reference core.bottomUp/core.topDown from outside the
#    core package.
# 2. There is one way to solve a problem (Solve, Engine.Solve) and one way to
#    schedule a network (ScheduleNetwork, Engine.ScheduleNetwork). The guard
#    fails if a removed entry point is declared again in the root package or
#    internal/core — Optimize, OptimizeContext, OptimizeResilient, the
#    ScheduleNetworkContext/IR/Fused variants and their helpers, the root
#    SolveContext — or if anything declares NewServer (sunstoned builds its
#    server with internal/server.New directly).
# 3. There is one cost model: cost.Session and its Evaluator. The
#    map-walking transcription of the same equations lives only in
#    internal/cost's _test.go files, as the reference the tests pin
#    production to. The guard fails if a non-test Go file under
#    internal/cost declares Flows, pairFlow, computeFlow, passCount or
#    loopsBetween again, so a second production model cannot come back
#    unnoticed.
# 4. The cost model keeps no per-mapping result cache: EvaluateEDP scores
#    every call, because a search scores only a few hundred mappings. The
#    guard fails if a non-test Go file declares the removed memo's pieces
#    again — cacheShard, CountCacheInto, CacheCounters, SiteCacheGet or
#    CtrCacheHits — as a type, function, method, constant or variable.
#
# Run from anywhere: ./scripts/guard-stepper.sh
set -eu
cd "$(dirname "$0")/.."

status=0

# Calls to a bare bottomUp(...)/topDown(...) function anywhere in the tree.
# \b keeps compounds like topDownUnroll( legal; cmd/sunstone's `topDown`
# flag variable never appears with a call paren.
if grep -rnE --include='*.go' '\b(bottomUp|topDown)[[:space:]]*\(' . ; then
	echo "guard-stepper: direction-specific search entry points are gone;" >&2
	echo "route new work through the unified sequencer in internal/core/stepper.go" >&2
	status=1
fi

# Qualified references would only appear if the symbols were resurrected and
# exported by mistake.
if grep -rnE --include='*.go' 'core\.(bottomUp|topDown)\b' . ; then
	echo "guard-stepper: do not reference core.bottomUp/core.topDown" >&2
	status=1
fi

# Removed solve/schedule entry points, as functions or methods.
removed='Optimize|OptimizeContext|OptimizeResilient|ScheduleNetworkContext|ScheduleNetworkIR|ScheduleNetworkFused|scheduleNetworkIR|convNetworkIR'
decl='^func (\([^)]*\) )?'
if grep -nE --include='*.go' "$decl($removed)\(" ./*.go internal/core/*.go ||
	grep -nE "${decl}SolveContext\(" ./*.go ||
	grep -rnE --include='*.go' "${decl}NewServer\(" . ; then
	echo "guard-stepper: removed entry points are declared again;" >&2
	echo "solve through Solve/Engine.Solve and schedule through ScheduleNetwork/Engine.ScheduleNetwork" >&2
	status=1
fi

# The map-walking reference model, declared outside the tests.
reference='Flows|pairFlow|computeFlow|passCount|loopsBetween'
for f in internal/cost/*.go; do
	case $f in *_test.go) continue ;; esac
	if grep -nE "$decl($reference)\(" "$f"; then
		echo "guard-stepper: $f declares the map-walking reference model;" >&2
		echo "score mappings through cost.Session (the reference lives in internal/cost's tests)" >&2
		status=1
	fi
done

# The removed search-wide evaluation memo, declared outside the tests.
memo='cacheShard|CountCacheInto|CacheCounters|SiteCacheGet|CtrCacheHits'
if grep -rnE --include='*.go' --exclude='*_test.go' \
	"(${decl}|^(type|const|var)[[:space:]]+|^[[:space:]]+)($memo)\b([[:space:]]*[=(]|[[:space:]]+[^[:space:]=])" . ; then
	echo "guard-stepper: the evaluation memo is gone; EvaluateEDP scores every call" >&2
	echo "(a search scores a few hundred mappings — scoring again beats caching)" >&2
	status=1
fi

exit $status
