#!/usr/bin/env bash
# Builds the library with a sanitizer and runs the training-engine tests.
#
# Usage:  scripts/check_sanitizers.sh [thread|address]   (default: thread)
#
# The thread run is the important one: it drives every Hogwild trainer with
# multiple workers under TSan, proving the relaxed-atomic access policy
# keeps the lock-free updates data-race-free under the C++ memory model.
set -euo pipefail

SANITIZER="${1:-thread}"
case "$SANITIZER" in
  thread|address) ;;
  *)
    echo "usage: $0 [thread|address]" >&2
    exit 2
    ;;
esac

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$REPO_ROOT/build-$SANITIZER"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDEEPDIRECT_SANITIZE="$SANITIZER" \
  -DDEEPDIRECT_BUILD_BENCHMARKS=OFF \
  -DDEEPDIRECT_BUILD_EXAMPLES=OFF

# The trainer-facing test binaries: the train/ engine itself, the
# checkpoint/resume layer with its fault-injection sweeps, every migrated
# trainer (DeepDirect E/D-step, LINE, logistic regression) and the E-step
# body's one-step gradient check (EStepGradientTest.*) and its one kernel
# call against per-negative updates (EStepListTest.*), the metrics
# registry the trainers record into, and the parallel deterministic
# preprocessing stages (pattern precompute, centrality sweeps, two-pass
# graph build) at num_threads=4, the SIMD kernel layer (dispatch,
# scalar-vs-SIMD tolerance sweeps, policy interplay) that all trainers now
# route their inner loops through, the serving layer (concurrent readers
# over one mmap'd model through the sharded hot-tie cache, and the serve
# loop's in-place tokenizer and value renderer over request bytes), the
# streaming-update layer (Hogwild incremental E-step over the affected
# arc set, warm-start state load/save), the out-of-core trainer
# (shard-affine Hogwild over the mmap'd row file, the page CLOCK's
# concurrent admission and eviction under one mutex, and the DDS1 export
# of a store-backed model, which reads every row of M back through the
# mapping under a budget below the footprint), every reader sweep of
# the aligned section container (the shared reader's truncation, corruption
# and structure-aware mutation sweeps, the DDS1 sweeps through its public
# Open, the forged DDS1 files (wrapping arc count, scores outside [0, 1],
# the version 1 layout), and the checkpoint sweeps over a real file of
# each DDCK table through Checkpointer::Check), where an over-read on a
# malformed file is a finding even when a check rejects the file
# afterwards, and the writers that gather payloads from caller memory:
# checkpoint writes from the trainers' live views (CheckpointTest.*, and
# the E-step state round trip through SaveEStepState/LoadEStepState), the
# aligned container's WriteFile (ContainerTest.*), and the CRC-32 fold
# they checksum with (KernelsTest.*). The input-binding resume tests
# (ResumeBindingTest.*) run through *Resume*.
TARGETS=(train_test checkpoint_test deepdirect_test embedding_test
         ml_test obs_test trace_test centrality_test graph_test
         kernels_test serve_test incremental_test sharded_store_test
         container_test)
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TARGETS[@]}"

# Multi-worker + determinism tests exercise the Hogwild path and the serial
# path; halt on the first sanitizer report.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"

FILTER='*MultiThreaded*:*Deterministic*:*Concurrent*:*Resume*:CheckpointTest.*:SgdDriverTest.*:ThreadPoolTest.*:ObsCounterTest.*:ObsHistogramTest.*:ObsTraceTest.*:ObsEndToEndTest.*:ObsTimelineTest.*:TraceBufferTest.*:TraceSpanTest.*:TraceEndToEndTest.*:KernelsTest.*:ServeLoopTest.*:ShardedTrainerTest.Hogwild*:ShardedTrainerTest.ExportMatchesTheInRamFile:ContainerTest.*:ServableModelTest.*Sweep*:ServableModelTest.Wrapping*:ServableModelTest.OutOfRangeScoresAreRejected:ServableModelTest.VersionOneFileIsRejected:ShardedStoreTest.*:IncrementalTest.EStepStateRoundTrips:IncrementalTest.LoadSkipsCorruptNewestCheckpoint:*EStepGradientTest.*:EStepListTest.*'
for target in "${TARGETS[@]}"; do
  echo "=== $target ($SANITIZER) ==="
  "$BUILD_DIR/tests/$target" --gtest_filter="$FILTER"
done

echo "OK: $SANITIZER-sanitized trainer tests passed."
