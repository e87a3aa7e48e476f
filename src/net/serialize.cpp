#include "net/serialize.hpp"

#include <array>

namespace eba {

namespace {

using Kind = DecodeError::Kind;

[[noreturn]] void reject(Kind kind, const std::string& what) {
  throw DecodeError(kind, what);
}

}  // namespace

void put_u32(Bytes& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xffu));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(p[b]) << (8 * b);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return v;
}

std::uint8_t Reader::u8() {
  if (pos_ >= data_.size())
    reject(Kind::truncated, "payload ended at byte " + std::to_string(pos_));
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8)
    v |= static_cast<std::uint32_t>(u8()) << shift;
  return v;
}

std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8)
    v |= static_cast<std::uint64_t>(u8()) << shift;
  return v;
}

void Writer::word(std::uint64_t v, int nbytes) {
  for (int b = 0; b < nbytes; ++b)
    out_.push_back(static_cast<std::uint8_t>((v >> (8 * b)) & 0xffu));
}

std::uint64_t Reader::word(int nbytes) {
  std::uint64_t v = 0;
  for (int b = 0; b < nbytes; ++b)
    v |= static_cast<std::uint64_t>(u8()) << (8 * b);
  return v;
}

// -- Container preamble, CRC32 and frames ------------------------------------

void write_preamble(Bytes& out, const char (&magic)[4], std::uint32_t version) {
  for (char c : magic) out.push_back(static_cast<std::uint8_t>(c));
  put_u32(out, version);
}

std::uint32_t read_preamble(const Bytes& bytes, const char (&magic)[4],
                            std::uint32_t min_version,
                            std::uint32_t max_version, const char* what) {
  if (bytes.size() < kPreambleBytes)
    reject(Kind::truncated, std::string(what) + " shorter than its preamble");
  for (std::size_t k = 0; k < 4; ++k)
    if (bytes[k] != static_cast<std::uint8_t>(magic[k]))
      reject(Kind::bad_magic, std::string("not an ") + what);
  const std::uint32_t version = get_u32(bytes.data() + 4);
  if (version < min_version || version > max_version) {
    std::string msg = what;
    msg += " version ";
    msg += std::to_string(version);
    msg += " (this build reads versions ";
    msg += std::to_string(min_version);
    msg += "..";
    msg += std::to_string(max_version);
    msg += ")";
    reject(Kind::bad_version, msg);
  }
  return version;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

void write_frame(Bytes& out, std::uint8_t kind, const Bytes& payload) {
  const std::size_t start = out.size();
  out.push_back(kind);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  put_u32(out, crc32(out.data() + start, out.size() - start));
}

Frame read_frame(const Bytes& buf, std::size_t& pos) {
  if (buf.size() - pos < 5)
    reject(Kind::truncated, "frame header ends at byte " + std::to_string(pos));
  const std::size_t start = pos;
  const std::uint8_t kind = buf[pos];
  const std::uint32_t len = get_u32(buf.data() + pos + 1);
  pos += 5;
  if (buf.size() - pos < static_cast<std::size_t>(len) + 4)
    reject(Kind::truncated,
           "frame payload of " + std::to_string(len) + " bytes ends at byte " +
               std::to_string(buf.size()));
  Frame f;
  f.kind = kind;
  f.payload.assign(buf.begin() + static_cast<std::ptrdiff_t>(pos),
                   buf.begin() + static_cast<std::ptrdiff_t>(pos + len));
  pos += len;
  const std::uint32_t want = crc32(buf.data() + start, 5 + len);
  const std::uint32_t got = get_u32(buf.data() + pos);
  pos += 4;
  if (got != want)
    reject(Kind::crc_mismatch, "frame kind " + std::to_string(kind) +
                                   " at byte " + std::to_string(start));
  return f;
}

// -- Message codecs ----------------------------------------------------------

void encode_message(Writer& w, Value m) {
  w.u8(static_cast<std::uint8_t>(to_int(m)));
}
void decode_message(Reader& r, Value& m) {
  const std::uint8_t b = r.u8();
  if (b > 1) reject(Kind::malformed, "bad Value byte");
  m = value_of(b);
}

void encode_message(Writer& w, BasicMsg m) {
  w.u8(static_cast<std::uint8_t>(m));
}
void decode_message(Reader& r, BasicMsg& m) {
  const std::uint8_t b = r.u8();
  if (b > static_cast<std::uint8_t>(BasicMsg::init1))
    reject(Kind::malformed, "bad BasicMsg byte");
  m = static_cast<BasicMsg>(b);
}

void encode_message(Writer& w, const ReportMsg& m) {
  w.u8(opt_value_tag(m.fresh_decide));
  w.u8(opt_value_tag(m.decided_ever));
  w.u64(m.zeros.bits());
  w.u64(m.faults.bits());
}
void decode_message(Reader& r, ReportMsg& m) {
  m.fresh_decide = opt_value_of(r.u8(), "fresh_decide");
  m.decided_ever = opt_value_of(r.u8(), "decided_ever");
  m.zeros = AgentSet(r.u64());
  m.faults = AgentSet(r.u64());
  // A fresh decision is sticky by construction; a payload claiming a fresh
  // decide without the matching decided_ever never left a real µ.
  if (m.fresh_decide && m.decided_ever != m.fresh_decide)
    reject(Kind::malformed, "fresh_decide without matching decided_ever");
}

void encode_message(Writer& w, const AuthMsg& m) {
  encode_message(w, m.payload);
  w.u64(m.sig);
}
void decode_message(Reader& r, AuthMsg& m) {
  decode_message(r, m.payload);
  m.sig = r.u64();
}

// Packed graph payload: header (n, time), then for each receiver row in
// round-major order the known and value planes as ceil(n/8)-byte words, then
// the two preference plane words. This ships the in-memory representation
// directly — 2 bits per edge on the wire, matching bit_size()'s Prop 8.1
// accounting — instead of the old byte-per-label walk.
void encode_graph(Writer& w, const CommGraph& g) {
  const int row_bytes = plane_row_bytes(g.n());
  w.u32(static_cast<std::uint32_t>(g.n()));
  w.u32(static_cast<std::uint32_t>(g.time()));
  for (int m = 0; m < g.time(); ++m)
    for (AgentId to = 0; to < g.n(); ++to) {
      w.word(g.known_senders(m, to).bits(), row_bytes);
      w.word(g.present_senders(m, to).bits(), row_bytes);
    }
  w.word(g.known_prefs().bits(), row_bytes);
  w.word(g.one_prefs().bits(), row_bytes);
}

CommGraph decode_graph(Reader& r) {
  const int n = static_cast<int>(r.u32());
  const int time = static_cast<int>(r.u32());
  if (!(n >= 1 && n <= kMaxAgents && time >= 0 && time <= 4096))
    reject(Kind::malformed, "bad graph header (n=" + std::to_string(n) +
                                ", time=" + std::to_string(time) + ")");
  const int row_bytes = plane_row_bytes(n);
  const std::uint64_t full = AgentSet::all(n).bits();
  CommGraph g = CommGraph::blank(n, time);
  for (int m = 0; m < time; ++m)
    for (AgentId to = 0; to < n; ++to) {
      const std::uint64_t known = r.word(row_bytes);
      const std::uint64_t value = r.word(row_bytes);
      if ((known & ~full) != 0 || (value & ~known) != 0)
        reject(Kind::malformed, "bad label row");
      g.set_row(m, to, AgentSet(known), AgentSet(value));
    }
  const std::uint64_t pk = r.word(row_bytes);
  const std::uint64_t pv = r.word(row_bytes);
  if ((pk & ~full) != 0 || (pv & ~pk) != 0)
    reject(Kind::malformed, "bad pref rows");
  for (AgentId j : AgentSet(pk))
    g.set_pref(j, (pv >> j) & 1u ? PrefLabel::one : PrefLabel::zero);
  return g;
}

void encode_message(Writer& w, const std::shared_ptr<const CommGraph>& m) {
  EBA_REQUIRE(m != nullptr, "null graph message");
  encode_graph(w, *m);
}
void decode_message(Reader& r, std::shared_ptr<const CommGraph>& m) {
  m = std::make_shared<const CommGraph>(decode_graph(r));
}

// -- Failure patterns --------------------------------------------------------

void encode_pattern(Writer& w, const FailurePattern& alpha) {
  const int n = alpha.n();
  const int row_bytes = plane_row_bytes(n);
  w.u32(static_cast<std::uint32_t>(n));
  w.word(alpha.nonfaulty().bits(), row_bytes);
  w.u32(static_cast<std::uint32_t>(alpha.recorded_rounds()));
  for (int m = 0; m < alpha.recorded_rounds(); ++m)
    for (AgentId from = 0; from < n; ++from)
      w.word(alpha.dropped(m, from).bits(), row_bytes);
  w.u32(static_cast<std::uint32_t>(alpha.recorded_receive_rounds()));
  for (int m = 0; m < alpha.recorded_receive_rounds(); ++m)
    for (AgentId to = 0; to < n; ++to)
      w.word(alpha.dropped_receive(m, to).bits(), row_bytes);
}

FailurePattern decode_pattern(Reader& r) {
  const int n = static_cast<int>(r.u32());
  if (!(n >= 1 && n <= kMaxAgents))
    reject(Kind::malformed, "bad pattern agent count " + std::to_string(n));
  const std::uint64_t nonfaulty = r.word(plane_row_bytes(n));
  if ((nonfaulty & ~AgentSet::all(n).bits()) != 0)
    reject(Kind::malformed, "nonfaulty set outside the population");
  FailurePattern alpha(n, AgentSet(nonfaulty));

  // Both planes: a round count, then per round one drop row per owning
  // agent (sender for the send plane, receiver for the receive plane). Only
  // faulty agents may own drops.
  const auto decode_plane = [&](const char* plane, auto&& drop) {
    const int rounds = static_cast<int>(r.u32());
    if (rounds < 0 || rounds > 4096)
      reject(Kind::malformed, std::string("bad ") + plane +
                                  "-plane round count");
    for (int m = 0; m < rounds; ++m) {
      const std::vector<AgentSet> rows =
          decode_plane_rows(r, n, /*forbid_self=*/true);
      for (AgentId owner = 0; owner < n; ++owner) {
        const AgentSet row = rows[static_cast<std::size_t>(owner)];
        if (row.empty()) continue;
        if (alpha.nonfaulty().contains(owner))
          reject(Kind::malformed,
                 std::string(plane) + " drops owned by a nonfaulty agent");
        for (AgentId other : row) drop(m, owner, other);
      }
    }
  };
  decode_plane("send", [&](int m, AgentId from, AgentId to) {
    alpha.drop(m, from, to);
  });
  decode_plane("receive", [&](int m, AgentId to, AgentId from) {
    alpha.drop_receive(m, from, to);
  });
  return alpha;
}

// -- Round planes ------------------------------------------------------------

std::uint8_t opt_value_tag(const std::optional<Value>& v) {
  if (!v) return 0;
  return *v == Value::zero ? 1 : 2;
}

std::optional<Value> opt_value_of(std::uint8_t tag, const char* field) {
  switch (tag) {
    case 0: return std::nullopt;
    case 1: return Value::zero;
    case 2: return Value::one;
    default: reject(Kind::malformed, std::string("bad ") + field + " tag");
  }
}

std::uint8_t action_byte(const Action& a) {
  return a.is_decide() ? opt_value_tag(a.value()) : 0;
}

Action action_of(std::uint8_t b) {
  const std::optional<Value> v = opt_value_of(b, "action");
  return v ? Action::decide(*v) : Action::noop();
}

void encode_actions(Writer& w, std::span<const Action> actions) {
  for (const Action& a : actions) w.u8(action_byte(a));
}

std::vector<Action> decode_actions(Reader& r, int n) {
  std::vector<Action> actions;
  actions.reserve(static_cast<std::size_t>(n));
  for (AgentId i = 0; i < n; ++i) actions.push_back(action_of(r.u8()));
  return actions;
}

void encode_plane_rows(Writer& w, std::span<const AgentSet> rows) {
  const int row_bytes = plane_row_bytes(static_cast<int>(rows.size()));
  for (const AgentSet& s : rows) w.word(s.bits(), row_bytes);
}

std::vector<AgentSet> decode_plane_rows(Reader& r, int n, bool forbid_self) {
  const int row_bytes = plane_row_bytes(n);
  const std::uint64_t full = AgentSet::all(n).bits();
  std::vector<AgentSet> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (AgentId i = 0; i < n; ++i) {
    const std::uint64_t row = r.word(row_bytes);
    if ((row & ~full) != 0 || (forbid_self && ((row >> i) & 1u)))
      reject(Kind::malformed, "plane row outside the population");
    rows.push_back(AgentSet(row));
  }
  return rows;
}

void encode_round_planes(Writer& w, std::span<const Action> actions,
                         std::span<const AgentSet> sent,
                         std::span<const AgentSet> delivered) {
  EBA_REQUIRE(sent.size() == actions.size() &&
                  delivered.size() == actions.size(),
              "round planes must cover every agent");
  encode_actions(w, actions);
  encode_plane_rows(w, sent);
  encode_plane_rows(w, delivered);
}

void decode_round_planes(Reader& r, int n, std::vector<Action>& actions,
                         std::vector<AgentSet>& sent,
                         std::vector<AgentSet>& delivered) {
  actions = decode_actions(r, n);
  sent = decode_plane_rows(r, n, /*forbid_self=*/true);
  delivered = decode_plane_rows(r, n, /*forbid_self=*/false);
  for (std::size_t i = 0; i < delivered.size(); ++i)
    if (!delivered[i].subset_of(sent[i]))
      reject(Kind::malformed, "delivered row not a subset of sent");
}

void encode_run_context(Writer& w, AgentSet nonfaulty,
                        std::span<const Value> inits) {
  w.word(nonfaulty.bits(), plane_row_bytes(static_cast<int>(inits.size())));
  for (Value v : inits) w.u8(static_cast<std::uint8_t>(to_int(v)));
}

void decode_run_context(Reader& r, int n, RunRecord& record) {
  const std::uint64_t nonfaulty = r.word(plane_row_bytes(n));
  if ((nonfaulty & ~AgentSet::all(n).bits()) != 0)
    reject(Kind::malformed, "nonfaulty set outside the population");
  record.nonfaulty = AgentSet(nonfaulty);
  record.inits.clear();
  record.inits.reserve(static_cast<std::size_t>(n));
  for (AgentId i = 0; i < n; ++i) {
    const std::uint8_t b = r.u8();
    if (b > 1) reject(Kind::malformed, "bad init byte");
    record.inits.push_back(value_of(b));
  }
}

// -- Run records -------------------------------------------------------------

void encode_record(Writer& w, const RunRecord& record) {
  EBA_REQUIRE(static_cast<int>(record.inits.size()) == record.n,
              "record inits must cover every agent");
  w.u32(static_cast<std::uint32_t>(record.n));
  w.u32(static_cast<std::uint32_t>(record.t));
  w.u32(static_cast<std::uint32_t>(record.rounds));
  encode_run_context(w, record.nonfaulty, record.inits);
  for (int m = 0; m < record.rounds; ++m) {
    const std::size_t um = static_cast<std::size_t>(m);
    encode_round_planes(w, record.actions[um], record.sent[um],
                        record.delivered[um]);
  }
}

RunRecord decode_record(Reader& r) {
  RunRecord record;
  record.n = static_cast<int>(r.u32());
  record.t = static_cast<int>(r.u32());
  record.rounds = static_cast<int>(r.u32());
  if (!(record.n >= 1 && record.n <= kMaxAgents))
    reject(Kind::malformed, "bad record agent count");
  if (!(record.t >= 0 && record.t < record.n))
    reject(Kind::malformed, "bad record failure bound");
  if (!(record.rounds >= 0 && record.rounds <= 4096))
    reject(Kind::malformed, "bad record round count");
  decode_run_context(r, record.n, record);
  record.actions.resize(static_cast<std::size_t>(record.rounds));
  record.sent.resize(static_cast<std::size_t>(record.rounds));
  record.delivered.resize(static_cast<std::size_t>(record.rounds));
  for (std::size_t m = 0; m < record.actions.size(); ++m)
    decode_round_planes(r, record.n, record.actions[m], record.sent[m],
                        record.delivered[m]);
  return record;
}

// -- Exchange-state codecs ---------------------------------------------------

void encode_state(Writer& w, const MinState& s) {
  w.u32(static_cast<std::uint32_t>(s.time));
  w.u8(static_cast<std::uint8_t>(to_int(s.init)));
  w.u8(opt_value_tag(s.decided));
  w.u8(opt_value_tag(s.jd));
}

void decode_state(Reader& r, MinState& s) {
  s.time = static_cast<int>(r.u32());
  if (s.time < 0 || s.time > 4096) reject(Kind::malformed, "bad state time");
  const std::uint8_t init = r.u8();
  if (init > 1) reject(Kind::malformed, "bad state init byte");
  s.init = value_of(init);
  s.decided = opt_value_of(r.u8(), "decided");
  s.jd = opt_value_of(r.u8(), "jd");
}

void encode_state(Writer& w, const BasicState& s) {
  w.u32(static_cast<std::uint32_t>(s.time));
  w.u8(static_cast<std::uint8_t>(to_int(s.init)));
  w.u8(opt_value_tag(s.decided));
  w.u8(opt_value_tag(s.jd));
  w.u32(static_cast<std::uint32_t>(s.ones));
}

void decode_state(Reader& r, BasicState& s) {
  s.time = static_cast<int>(r.u32());
  if (s.time < 0 || s.time > 4096) reject(Kind::malformed, "bad state time");
  const std::uint8_t init = r.u8();
  if (init > 1) reject(Kind::malformed, "bad state init byte");
  s.init = value_of(init);
  s.decided = opt_value_of(r.u8(), "decided");
  s.jd = opt_value_of(r.u8(), "jd");
  s.ones = static_cast<int>(r.u32());
  if (s.ones < 0 || s.ones > kMaxAgents)
    reject(Kind::malformed, "bad ones count");
}

void encode_state(Writer& w, const FipState& s) {
  w.u32(static_cast<std::uint32_t>(s.time));
  w.u8(static_cast<std::uint8_t>(s.self));
  w.u8(static_cast<std::uint8_t>(to_int(s.init)));
  w.u8(opt_value_tag(s.decided));
  encode_graph(w, s.graph);
}

void decode_state(Reader& r, FipState& s) {
  s.time = static_cast<int>(r.u32());
  if (s.time < 0 || s.time > 4096) reject(Kind::malformed, "bad state time");
  const std::uint8_t self = r.u8();
  if (self >= kMaxAgents) reject(Kind::malformed, "bad state agent id");
  s.self = static_cast<AgentId>(self);
  const std::uint8_t init = r.u8();
  if (init > 1) reject(Kind::malformed, "bad state init byte");
  s.init = value_of(init);
  s.decided = opt_value_of(r.u8(), "decided");
  s.graph = decode_graph(r);
  // Derived caches restart empty; they are keyed on the graph and refill
  // lazily with identical contents (excluded from state equality).
  s.inferred = {};
  s.knowledge = {};
}

namespace {

void encode_report_core(Writer& w, const ReportState& s) {
  w.u32(static_cast<std::uint32_t>(s.time));
  w.u8(static_cast<std::uint8_t>(to_int(s.init)));
  w.u8(opt_value_tag(s.decided));
  w.u8(opt_value_tag(s.jd));
  w.u64(s.zeros.bits());
  w.u64(s.faults.bits());
  w.u8(s.budget_common ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(s.ones));
}

void decode_report_core(Reader& r, ReportState& s) {
  s.time = static_cast<int>(r.u32());
  if (s.time < 0 || s.time > 4096) reject(Kind::malformed, "bad state time");
  const std::uint8_t init = r.u8();
  if (init > 1) reject(Kind::malformed, "bad state init byte");
  s.init = value_of(init);
  s.decided = opt_value_of(r.u8(), "decided");
  s.jd = opt_value_of(r.u8(), "jd");
  s.zeros = AgentSet(r.u64());
  s.faults = AgentSet(r.u64());
  const std::uint8_t budget = r.u8();
  if (budget > 1) reject(Kind::malformed, "bad budget_common byte");
  s.budget_common = budget != 0;
  const std::uint8_t ones = r.u8();
  if (ones > kMaxAgents) reject(Kind::malformed, "bad ones count");
  s.ones = ones;
}

}  // namespace

void encode_state(Writer& w, const ReportState& s) {
  encode_report_core(w, s);
}

void decode_state(Reader& r, ReportState& s) { decode_report_core(r, s); }

void encode_state(Writer& w, const AuthState& s) {
  // AuthState is ReportState's evidence plus the agent's own id.
  encode_report_core(w, ReportState{.time = s.time,
                                    .init = s.init,
                                    .decided = s.decided,
                                    .jd = s.jd,
                                    .zeros = s.zeros,
                                    .faults = s.faults,
                                    .budget_common = s.budget_common,
                                    .ones = s.ones});
  w.u8(static_cast<std::uint8_t>(s.self));
}

void decode_state(Reader& r, AuthState& s) {
  ReportState core;
  decode_report_core(r, core);
  s.time = core.time;
  s.init = core.init;
  s.decided = core.decided;
  s.jd = core.jd;
  s.zeros = core.zeros;
  s.faults = core.faults;
  s.budget_common = core.budget_common;
  s.ones = core.ones;
  const std::uint8_t self = r.u8();
  if (self >= kMaxAgents) reject(Kind::malformed, "bad state agent id");
  s.self = static_cast<AgentId>(self);
}

}  // namespace eba
