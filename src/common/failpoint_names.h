#ifndef IOLAP_COMMON_FAILPOINT_NAMES_H_
#define IOLAP_COMMON_FAILPOINT_NAMES_H_

namespace iolap {

/// The single inventory of every failpoint in the engine. A failpoint is a
/// named seam where deterministic fault injection can force the failure
/// path (see common/failpoint.h for activation and docs/INTERNALS.md §9 for
/// the spec grammar). Adding a failpoint means adding exactly one line
/// here; names are kebab-case and unique, which tools/lint's
/// `failpoint-name` rule enforces — including that no other file declares
/// an inventory of its own.
///
/// Seams (in engine order):
///  - exec-integrity-verdict: a spurious variation-range integrity failure
///    reported by BlockExecutor publication (arg = rollback depth).
///  - registry-publish-fault: AggregateRegistry::Publish reports a failed
///    integrity verdict for a group it just published (arg = depth).
///  - registry-envelope-fault: a *natural-typed* envelope violation — the
///    tracker walks back its constraint history exactly as a real escape
///    would, so the replay freezes ranges.
///  - checkpoint-capture-corrupt: flips a checksum bit while a checkpoint
///    is captured; detected at restore time.
///  - checkpoint-restore-fault: a checkpoint fails verification at restore
///    time even though its content is intact.
///  - controller-batch-fault: the QueryController loses a scheduled batch
///    after it completed and must recover it (arg = rollback depth).
///  - pool-task-fault: a ThreadPool task body dies and is retried
///    (idempotent phases only).
///  - csv-read-fault: a transient CSV/catalog ingest failure, absorbed by
///    ReadCsvFileWithRetry's bounded exponential backoff.
#define IOLAP_FAILPOINT_NAMES(X)                             \
  X(kExecIntegrityVerdict, "exec-integrity-verdict")         \
  X(kRegistryPublishFault, "registry-publish-fault")         \
  X(kRegistryEnvelopeFault, "registry-envelope-fault")       \
  X(kCheckpointCaptureCorrupt, "checkpoint-capture-corrupt") \
  X(kCheckpointRestoreFault, "checkpoint-restore-fault")     \
  X(kControllerBatchFault, "controller-batch-fault")         \
  X(kPoolTaskFault, "pool-task-fault")                       \
  X(kCsvReadFault, "csv-read-fault")

enum class Failpoint {
#define IOLAP_FAILPOINT_ENUM_ENTRY(symbol, name) symbol,
  IOLAP_FAILPOINT_NAMES(IOLAP_FAILPOINT_ENUM_ENTRY)
#undef IOLAP_FAILPOINT_ENUM_ENTRY
      kCount
};

inline constexpr int kNumFailpoints = static_cast<int>(Failpoint::kCount);

}  // namespace iolap

#endif  // IOLAP_COMMON_FAILPOINT_NAMES_H_
