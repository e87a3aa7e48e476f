// Durable binary trace format ("EBTR") with streaming writer and offline
// replay verification.
//
// Container layout (all integers little-endian; see docs/RECOVERY.md for
// the version table):
//
//   magic "EBTR" · u32 version (1 = unkeyed, 2 = keyed) · frames…
//
// Each frame is CRC-guarded (net/serialize.hpp write_frame/read_frame):
//
//   kind 1 HEADER       u64 instance_id, u32 n, u32 t,
//                       word nonfaulty, n × u8 inits
//                       (version 2 appends u64 key_check — the key's
//                       fingerprint, so a wrong key is rejected at the
//                       header as DecodeError::Kind::key_mismatch)
//   kind 2 ROUND        u32 round (1-based, consecutive), then the round's
//                       planes: n × u8 actions, n × word sent, n × word
//                       delivered (net/serialize.hpp encode_round_planes)
//   kind 3 CERTIFICATE  encode_certificate payload (audit/certificate.hpp)
//
// Exactly one HEADER frame (first), then the ROUND frames in order, then
// exactly one CERTIFICATE frame (last). A trace missing its certificate is
// an unterminated stream — the writer crashed mid-run — and is rejected,
// which is what makes truncation detectable at any byte: either a frame
// CRC breaks, a frame is cut short, or the terminator is missing.
//
// `TraceWriter` is the streaming sink: the workload driver appends one
// ROUND frame per completed round, so a crash loses at most the round in
// flight. `replay_verify` re-derives the certificate from the replayed
// rounds and re-checks the EBA spec offline — corrupt, truncated and
// version-skewed inputs come back as diagnostics, never UB.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "audit/certificate.hpp"
#include "core/spec.hpp"
#include "core/types.hpp"
#include "net/serialize.hpp"

namespace eba {

inline constexpr std::uint32_t kTraceFormatVersion = 1;
inline constexpr std::uint32_t kTraceFormatVersionKeyed = 2;
inline constexpr char kTraceMagic[4] = {'E', 'B', 'T', 'R'};

/// Streaming trace sink: header at construction, one frame per round,
/// certificate on finish. All in-memory; callers persist the Bytes.
class TraceWriter {
 public:
  /// A nonzero `key` writes a version-2 container whose header carries the
  /// key fingerprint and whose certificate digests are keyed; key 0 writes
  /// the historical version-1 bytes unchanged.
  TraceWriter(std::uint64_t instance_id, int n, int t, AgentSet nonfaulty,
              const std::vector<Value>& inits, std::uint64_t key = 0);

  /// Appends round `rounds_written()+1`'s planes.
  void add_round(std::span<const Action> actions,
                 std::span<const AgentSet> sent,
                 std::span<const AgentSet> delivered);

  /// Appends every record round in [from_round, record.rounds). Used to
  /// re-open a trace from a restored checkpoint after a crash.
  void add_record_rounds(const RunRecord& record, int from_round = 0);

  [[nodiscard]] int rounds_written() const { return rounds_; }

  /// Appends the certificate frame and returns the finished container.
  /// The writer is spent afterwards.
  [[nodiscard]] Bytes finish(const DecisionCertificate& cert);

 private:
  Bytes out_;
  int n_;
  int rounds_ = 0;
};

/// One-shot convenience: record → finished trace bytes (certificate built
/// here).
[[nodiscard]] Bytes write_trace(const RunRecord& record,
                                std::uint64_t instance_id = 0,
                                std::uint64_t key = 0);

/// A fully parsed trace container.
struct TraceFile {
  std::uint32_t version = 0;
  std::uint64_t instance_id = 0;
  RunRecord record;
  DecisionCertificate certificate;
};

/// Parses and structurally validates a trace. Throws DecodeError (with the
/// failing byte offset in the message) on any corruption, truncation or
/// version skew; it never returns a partially filled trace.
/// `key` must match how the trace was written: a version-1 container
/// demands key 0, a version-2 container demands the key whose fingerprint
/// its header carries — otherwise DecodeError::Kind::key_mismatch.
[[nodiscard]] TraceFile read_trace(const Bytes& bytes, std::uint64_t key = 0);

/// Outcome of offline verification: parse + certificate re-derivation +
/// EBA spec check on the replayed record.
struct ReplayReport {
  bool ok = false;        ///< accepted: parsed, certificate checks, spec agrees
  bool parsed = false;    ///< container decoded (false ⇒ `error` says why)
  bool cert_ok = false;   ///< certificate matches the replayed rounds
  bool complete = false;  ///< the certificate claims a reached decision
  SpecReport spec;        ///< EBA spec over the replayed record
  std::uint32_t version = 0;
  std::uint64_t instance_id = 0;
  int rounds = 0;
  std::string error;      ///< parse diagnostic when !parsed
  std::vector<std::string> cert_errors;

  /// Human-readable one-line summary for tools.
  [[nodiscard]] std::string summary() const;
};

/// Verifies a trace end-to-end. Decode failures are reported, not thrown.
/// `ok` requires: the container parses, the certificate re-derives exactly,
/// and — when the certificate claims a decision — the EBA spec holds on the
/// replayed record. Truncated-horizon runs (no claimed decision) pass
/// without the termination properties, which a cut run cannot satisfy.
[[nodiscard]] ReplayReport replay_verify(const Bytes& bytes,
                                         std::uint64_t key = 0);

}  // namespace eba
