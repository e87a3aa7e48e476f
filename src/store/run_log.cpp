#include "store/run_log.hpp"

namespace eba {
namespace {

using Kind = DecodeError::Kind;

/// Shared preamble of both payloads: round index and population size.
std::pair<int, int> decode_round_n(Reader& r) {
  const int round = static_cast<int>(r.u32());
  const int n = static_cast<int>(r.u32());
  if (round < 0 || round > (1 << 20) || n < 1 || n > kMaxAgents)
    throw DecodeError(Kind::malformed, "bad run log round/population header");
  return {round, n};
}

void encode_round_n(Writer& w, int round, std::size_t n) {
  w.u32(static_cast<std::uint32_t>(round));
  w.u32(static_cast<std::uint32_t>(n));
}

}  // namespace

void encode_delta(Writer& w, const DeltaPayload& delta) {
  encode_round_n(w, delta.round, delta.actions.size());
  encode_round_planes(w, delta.actions, delta.sent, delta.delivered);
}

DeltaPayload decode_delta(Reader& r) {
  DeltaPayload delta;
  const auto [round, n] = decode_round_n(r);
  delta.round = round;
  decode_round_planes(r, n, delta.actions, delta.sent, delta.delivered);
  return delta;
}

void encode_intent(Writer& w, const IntentPayload& intent) {
  EBA_REQUIRE(intent.dropped_send.size() == intent.actions.size() &&
                  intent.dropped_receive.size() == intent.actions.size(),
              "intent planes must cover every agent");
  encode_round_n(w, intent.round, intent.actions.size());
  encode_actions(w, intent.actions);
  encode_plane_rows(w, intent.dropped_send);
  encode_plane_rows(w, intent.dropped_receive);
}

IntentPayload decode_intent(Reader& r) {
  IntentPayload intent;
  const auto [round, n] = decode_round_n(r);
  intent.round = round;
  intent.actions = decode_actions(r, n);
  intent.dropped_send = decode_plane_rows(r, n, /*forbid_self=*/true);
  intent.dropped_receive = decode_plane_rows(r, n, /*forbid_self=*/true);
  return intent;
}

DeltaPayload delta_of_record(const RunRecord& record, int m) {
  EBA_REQUIRE(m >= 0 && m < record.rounds,
              "delta round outside the recorded run");
  const std::size_t um = static_cast<std::size_t>(m);
  DeltaPayload delta;
  delta.round = m;
  delta.actions = record.actions[um];
  delta.sent = record.sent[um];
  delta.delivered = record.delivered[um];
  return delta;
}

RunLog::RunLog(Journal&& journal) : journal_(std::move(journal)) {
  for (const JournalRecord& rec : journal_.records())
    if (rec.kind == kRunLogCheckpoint) checkpoint_seqs_.push_back(rec.seq);
}

RunLog RunLog::create(Vfs& vfs, const std::string& dir,
                      const JournalOptions& opt) {
  return RunLog(Journal::create(vfs, dir, opt));
}

RunLog RunLog::open(Vfs& vfs, const std::string& dir,
                    const JournalOptions& opt) {
  return RunLog(Journal::open(vfs, dir, opt));
}

void RunLog::log_checkpoint(const Bytes& checkpoint_bytes) {
  checkpoint_seqs_.push_back(
      journal_.append(kRunLogCheckpoint, checkpoint_bytes));
  journal_.sync();
}

void RunLog::log_delta(const DeltaPayload& delta) {
  Writer w;
  encode_delta(w, delta);
  journal_.append(kRunLogDelta, w.take());
  journal_.sync();
}

void RunLog::log_intent(const IntentPayload& intent) {
  Writer w;
  encode_intent(w, intent);
  journal_.append(kRunLogIntent, w.take());
  journal_.sync();
}

void RunLog::gc_keep_checkpoints(int keep) {
  EBA_REQUIRE(keep >= 1, "retention must keep at least one checkpoint");
  if (checkpoint_seqs_.size() <= static_cast<std::size_t>(keep)) return;
  const std::uint64_t min_seq =
      checkpoint_seqs_[checkpoint_seqs_.size() - static_cast<std::size_t>(keep)];
  journal_.gc(min_seq);
  checkpoint_seqs_.erase(
      checkpoint_seqs_.begin(),
      checkpoint_seqs_.end() - static_cast<std::ptrdiff_t>(keep));
}

}  // namespace eba
