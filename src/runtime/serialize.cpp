#include "runtime/serialize.hpp"

#include <memory>
#include <utility>

#include "runtime/app_registry.hpp"
#include "util/codec.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"

namespace loki::runtime {

namespace {

using codec::DecodeError;
using codec::Reader;
using codec::Writer;

constexpr std::uint8_t kKindParams = 1;
constexpr std::uint8_t kKindResult = 2;
constexpr std::uint8_t kKindStudy = 3;

const char kMagic[4] = {'L', 'O', 'K', 'I'};

void put_header(Writer& w, std::uint8_t kind) {
  w.bytes(reinterpret_cast<const std::uint8_t*>(kMagic), 4);
  w.u16(kWireVersion);
  w.u8(kind);
}

void check_header(Reader& r, std::uint8_t kind) {
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.u8());
  if (magic[0] != 'L' || magic[1] != 'O' || magic[2] != 'K' || magic[3] != 'I')
    throw DecodeError("wire: bad magic (not a Loki wire message)");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion)
    throw DecodeError("wire: version mismatch: message has v" +
                      std::to_string(version) + ", this build speaks v" +
                      std::to_string(kWireVersion));
  const std::uint8_t got = r.u8();
  if (got != kind)
    throw DecodeError("wire: expected message kind " + std::to_string(kind) +
                      ", got " + std::to_string(got));
}

// --- shared small structs ----------------------------------------------------

void put_duration(Writer& w, Duration d) { w.i64(d.ns); }
Duration get_duration(Reader& r) { return Duration{r.i64()}; }

void put_clock(Writer& w, const sim::ClockParams& c) {
  put_duration(w, c.alpha);
  w.f64(c.beta);
  w.i64(c.granularity_ns);
}
sim::ClockParams get_clock(Reader& r) {
  sim::ClockParams c;
  c.alpha = get_duration(r);
  c.beta = r.f64();
  c.granularity_ns = r.i64();
  return c;
}

void put_network(Writer& w, const sim::NetworkParams& n) {
  put_duration(w, n.ipc.base);
  put_duration(w, n.ipc.jitter_mean);
  put_duration(w, n.tcp.base);
  put_duration(w, n.tcp.jitter_mean);
}
sim::NetworkParams get_network(Reader& r) {
  sim::NetworkParams n;
  n.ipc.base = get_duration(r);
  n.ipc.jitter_mean = get_duration(r);
  n.tcp.base = get_duration(r);
  n.tcp.jitter_mean = get_duration(r);
  return n;
}

template <typename T, typename Fn>
void put_vec(Writer& w, const std::vector<T>& v, Fn put_one) {
  w.u64(v.size());
  for (const T& x : v) put_one(x);
}

/// Read an element count. Every element takes at least `min_bytes` on the
/// wire (a string is a u64 length before its bytes, so 8 when empty), so a
/// count the remaining bytes cannot hold is rejected here instead of
/// becoming a reserve() of hundreds of times the input.
std::uint64_t get_count(Reader& r, std::size_t min_bytes) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / min_bytes)
    throw DecodeError("wire: element count " + std::to_string(n) +
                      " exceeds remaining bytes");
  return n;
}

// --- ExperimentParams body ---------------------------------------------------

void put_params_body(Writer& w, const ExperimentParams& p) {
  w.u64(p.seed);

  put_vec(w, p.hosts, [&](const HostConfig& h) {
    w.str(h.name);
    put_duration(w, h.sched.quantum);
    put_duration(w, h.sched.ctx_switch);
    w.f64(h.sched.wake_preempt_prob);
    w.boolean(h.clock.has_value());
    if (h.clock) put_clock(w, *h.clock);
    w.f64(h.load_duty);
    put_duration(w, h.load_chunk);
  });

  put_vec(w, p.nodes, [&](const NodeConfig& n) {
    if (n.app_name.empty())
      throw ConfigError("wire: node '" + n.nickname +
                        "': app_name is empty — only nodes with a registered "
                        "application identity can be serialized");
    w.str(n.nickname);
    w.str(n.sm_spec.name());
    w.str(spec::serialize_state_machine_spec(n.sm_spec));
    w.str(spec::serialize_fault_spec(n.fault_spec));
    w.str(n.app_name);
    w.str(n.app_args);
    w.boolean(n.initial_host.has_value());
    if (n.initial_host) w.str(*n.initial_host);
    w.boolean(n.enter_at.has_value());
    if (n.enter_at) put_duration(w, *n.enter_at);
    w.str(n.enter_host);
    w.boolean(n.restart.enabled);
    put_duration(w, n.restart.delay);
    w.u8(static_cast<std::uint8_t>(n.restart.placement));
    w.str(n.restart.fixed_host);
    w.i64(n.restart.max_restarts);
  });

  put_vec(w, p.host_crashes, [&](const HostCrashPlan& c) {
    w.str(c.host);
    put_duration(w, c.at);
    put_duration(w, c.reboot_after);
  });

  w.u8(static_cast<std::uint8_t>(p.design));

  put_duration(w, p.costs.node_notification_handler);
  put_duration(w, p.costs.daemon_route);
  put_duration(w, p.costs.register_handshake);
  put_duration(w, p.costs.watchdog_handler);
  put_duration(w, p.costs.probe_injection);
  put_duration(w, p.costs.app_default_handler);
  put_duration(w, p.costs.sync_stamp_handler);

  put_duration(w, p.fabric.watchdog_interval);
  put_duration(w, p.fabric.watchdog_timeout);

  put_duration(w, p.central.experiment_timeout);
  put_duration(w, p.central.end_confirm_grace);

  w.i64(p.sync.messages_per_pair);
  put_duration(w, p.sync.spacing);
  put_duration(w, p.sync.stamp_cost);

  put_network(w, p.app_lan);
  put_network(w, p.control_lan);

  put_duration(w, p.max_clock_offset);
  w.f64(p.max_drift_ppm);
  w.i64(p.clock_granularity_ns);
  put_duration(w, p.hard_limit);
}

ExperimentParams get_params_body(Reader& r) {
  ExperimentParams p;
  p.seed = r.u64();

  // name, quantum, ctx_switch, preempt prob, clock flag, duty, chunk
  const std::uint64_t n_hosts = get_count(r, 8 + 8 + 8 + 8 + 1 + 8 + 8);
  p.hosts.reserve(n_hosts);
  for (std::uint64_t i = 0; i < n_hosts; ++i) {
    HostConfig h;
    h.name = r.str();
    h.sched.quantum = get_duration(r);
    h.sched.ctx_switch = get_duration(r);
    h.sched.wake_preempt_prob = r.f64();
    if (r.boolean()) h.clock = get_clock(r);
    h.load_duty = r.f64();
    h.load_chunk = get_duration(r);
    p.hosts.push_back(std::move(h));
  }

  // nickname, sm name, sm text, fault text, app name, app args, two flags,
  // enter host, restart (enabled, delay, placement, fixed host, max)
  const std::uint64_t n_nodes =
      get_count(r, 6 * 8 + 1 + 1 + 8 + 1 + 8 + 1 + 8 + 8);
  p.nodes.reserve(n_nodes);
  for (std::uint64_t i = 0; i < n_nodes; ++i) {
    NodeConfig n;
    n.nickname = r.str();
    const std::string sm_name = r.str();
    n.sm_spec = spec::parse_state_machine_spec(r.str(), "wire:" + n.nickname);
    n.sm_spec.set_name(sm_name);
    n.fault_spec = spec::parse_fault_spec(r.str(), "wire:" + n.nickname);
    n.app_name = r.str();
    n.app_args = r.str();
    n.app_factory = make_application_factory(n.app_name, n.app_args);
    if (r.boolean()) n.initial_host = r.str();
    if (r.boolean()) n.enter_at = get_duration(r);
    n.enter_host = r.str();
    n.restart.enabled = r.boolean();
    n.restart.delay = get_duration(r);
    const std::uint8_t placement = r.u8();
    if (placement > static_cast<std::uint8_t>(RestartPolicy::Placement::Fixed))
      throw DecodeError("wire: restart placement out of range");
    n.restart.placement = static_cast<RestartPolicy::Placement>(placement);
    n.restart.fixed_host = r.str();
    n.restart.max_restarts = static_cast<int>(r.i64());
    p.nodes.push_back(std::move(n));
  }

  // host, at, reboot after
  const std::uint64_t n_crashes = get_count(r, 8 + 8 + 8);
  p.host_crashes.reserve(n_crashes);
  for (std::uint64_t i = 0; i < n_crashes; ++i) {
    HostCrashPlan c;
    c.host = r.str();
    c.at = get_duration(r);
    c.reboot_after = get_duration(r);
    p.host_crashes.push_back(std::move(c));
  }

  const std::uint8_t design = r.u8();
  if (design > static_cast<std::uint8_t>(TransportDesign::Direct))
    throw DecodeError("wire: transport design out of range");
  p.design = static_cast<TransportDesign>(design);

  p.costs.node_notification_handler = get_duration(r);
  p.costs.daemon_route = get_duration(r);
  p.costs.register_handshake = get_duration(r);
  p.costs.watchdog_handler = get_duration(r);
  p.costs.probe_injection = get_duration(r);
  p.costs.app_default_handler = get_duration(r);
  p.costs.sync_stamp_handler = get_duration(r);

  p.fabric.watchdog_interval = get_duration(r);
  p.fabric.watchdog_timeout = get_duration(r);

  p.central.experiment_timeout = get_duration(r);
  p.central.end_confirm_grace = get_duration(r);

  p.sync.messages_per_pair = static_cast<int>(r.i64());
  p.sync.spacing = get_duration(r);
  p.sync.stamp_cost = get_duration(r);

  p.app_lan = get_network(r);
  p.control_lan = get_network(r);

  p.max_clock_offset = get_duration(r);
  p.max_drift_ppm = r.f64();
  p.clock_granularity_ns = r.i64();
  p.hard_limit = get_duration(r);
  return p;
}

// --- ExperimentResult body ---------------------------------------------------

void put_timeline(Writer& w, const LocalTimeline& t) {
  w.str(t.nickname);
  w.str(t.initial_host);
  put_vec(w, t.machines, [&](const std::string& s) { w.str(s); });
  put_vec(w, t.states, [&](const std::string& s) { w.str(s); });
  put_vec(w, t.events, [&](const std::string& s) { w.str(s); });
  put_vec(w, t.faults, [&](const TimelineFaultEntry& f) {
    w.str(f.name);
    w.str(f.expr_text);
    w.u8(static_cast<std::uint8_t>(f.trigger));
  });
  put_vec(w, t.records, [&](const TimelineRecord& rec) {
    w.u8(static_cast<std::uint8_t>(rec.type));
    w.u32(rec.event_index);
    w.u32(rec.state_index);
    w.u32(rec.fault_index);
    w.str(rec.host);
    w.i64(rec.time.ns);
  });
}

std::vector<std::string> get_string_vec(Reader& r) {
  const std::uint64_t n = get_count(r, 8);
  std::vector<std::string> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.str());
  return v;
}

/// The study-invariant prefix of a timeline: everything before the records.
/// This is the unit the ResultInterner memoizes — within a study it is
/// byte-identical across every result from the same node.
void get_timeline_header(Reader& r, LocalTimeline& t) {
  t.nickname = r.str();
  t.initial_host = r.str();
  t.machines = get_string_vec(r);
  t.states = get_string_vec(r);
  t.events = get_string_vec(r);
  // name, expression, trigger
  const std::uint64_t n_faults = get_count(r, 8 + 8 + 1);
  t.faults.reserve(n_faults);
  for (std::uint64_t i = 0; i < n_faults; ++i) {
    TimelineFaultEntry f;
    f.name = r.str();
    f.expr_text = r.str();
    const std::uint8_t trig = r.u8();
    if (trig > static_cast<std::uint8_t>(spec::Trigger::Always))
      throw DecodeError("wire: fault trigger out of range");
    f.trigger = static_cast<spec::Trigger>(trig);
    t.faults.push_back(std::move(f));
  }
}

/// Advance past a timeline header without materializing any strings —
/// the interner's cheap scan to delimit the memo key span.
void skip_timeline_header(Reader& r) {
  const auto skip_str = [&r] { r.skip(r.u64()); };
  skip_str();  // nickname
  skip_str();  // initial_host
  for (int vec = 0; vec < 3; ++vec) {  // machines, states, events
    const std::uint64_t n = get_count(r, 8);
    for (std::uint64_t i = 0; i < n; ++i) skip_str();
  }
  const std::uint64_t n_faults = get_count(r, 8 + 8 + 1);
  for (std::uint64_t i = 0; i < n_faults; ++i) {
    skip_str();  // name
    skip_str();  // expr_text
    r.u8();      // trigger (validated on the decode pass)
  }
}

void get_timeline_records(Reader& r, LocalTimeline& t) {
  // type, event/state/fault index, host, time
  const std::uint64_t n_records = get_count(r, 1 + 3 * 4 + 8 + 8);
  t.records.reserve(n_records);
  for (std::uint64_t i = 0; i < n_records; ++i) {
    TimelineRecord rec;
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(RecordType::Restart))
      throw DecodeError("wire: timeline record type out of range");
    rec.type = static_cast<RecordType>(type);
    rec.event_index = r.u32();
    rec.state_index = r.u32();
    rec.fault_index = r.u32();
    rec.host = r.str();
    rec.time = LocalTime{r.i64()};
    t.records.push_back(std::move(rec));
  }
}

LocalTimeline get_timeline(Reader& r) {
  LocalTimeline t;
  get_timeline_header(r, t);
  get_timeline_records(r, t);
  return t;
}

}  // namespace

/// The interner hot path (friend of ResultInterner): delimit the header
/// span with a string-free skip scan, probe the memo with a string_view
/// over the frame bytes, and only parse (and cache) on the first miss.
/// Cached entries hold empty record vectors — records always decode live.
LocalTimeline interned_timeline(Reader& r, ResultInterner& interner) {
  const std::size_t start = r.position();
  skip_timeline_header(r);
  const std::size_t end = r.position();
  const std::string_view key(reinterpret_cast<const char*>(r.data() + start),
                             end - start);
  LocalTimeline t;
  const auto it = interner.headers_.find(key);
  if (it != interner.headers_.end()) {
    ++interner.hits_;
    t = it->second;
  } else {
    ++interner.misses_;
    Reader header(r.data() + start, end - start);
    get_timeline_header(header, t);
    header.expect_done();
    interner.headers_.emplace(std::string(key), t);
  }
  get_timeline_records(r, t);
  return t;
}

namespace {

// v2 layout: dense tables, no string-keyed maps. Nodes travel interleaved
// (timeline + its user messages), hosts as one table with parallel columns
// (name, start, end, true clock), ground-truth machines likewise (name,
// state sequence, crash times). Parallel invariants hold by construction on
// decode — there is no per-column count to mismatch.
void put_result_body(Writer& w, const ExperimentResult& res) {
  static const std::vector<std::string> kNoMessages;
  w.u64(res.timelines.size());
  for (std::size_t i = 0; i < res.timelines.size(); ++i) {
    put_timeline(w, res.timelines[i]);
    const std::vector<std::string>& messages =
        i < res.user_messages.size() ? res.user_messages[i] : kNoMessages;
    put_vec(w, messages, [&](const std::string& m) { w.str(m); });
  }

  put_vec(w, res.sync_samples, [&](const clocksync::SyncSample& s) {
    w.str(s.from);
    w.str(s.to);
    w.i64(s.send.ns);
    w.i64(s.recv.ns);
  });

  w.u64(res.hosts.size());
  for (std::size_t i = 0; i < res.hosts.size(); ++i) {
    w.str(res.hosts[i]);
    w.i64(res.start_local[i].ns);
    w.i64(res.end_local[i].ns);
    put_clock(w, res.true_clocks[i]);
  }

  w.u64(res.truth.machines.size());
  for (std::size_t i = 0; i < res.truth.machines.size(); ++i) {
    w.str(res.truth.machines[i]);
    put_vec(w, res.truth.state_seq[i],
            [&](const std::pair<SimTime, std::string>& e) {
              w.i64(e.first.ns);
              w.str(e.second);
            });
    put_vec(w, res.truth.crashes[i], [&](SimTime t) { w.i64(t.ns); });
  }
  put_vec(w, res.truth.injections, [&](const TrueInjection& inj) {
    w.str(inj.machine);
    w.str(inj.fault);
    w.i64(inj.at.ns);
  });

  w.i64(res.start_phys.ns);
  w.i64(res.end_phys.ns);
  w.boolean(res.completed);
  w.boolean(res.timed_out);
  w.u64(res.dropped_notifications);
  w.u64(res.control_messages);
  w.u64(res.app_messages);
}

ExperimentResult get_result_body(Reader& r, ResultInterner* interner) {
  ExperimentResult res;

  // Timeline (nickname, initial host, five counts), then its message count.
  const std::uint64_t n_nodes = get_count(r, 8 + 8 + 5 * 8 + 8);
  res.timelines.reserve(n_nodes);
  res.user_messages.reserve(n_nodes);
  for (std::uint64_t i = 0; i < n_nodes; ++i) {
    res.timelines.push_back(interner != nullptr ? interned_timeline(r, *interner)
                                                : get_timeline(r));
    res.user_messages.push_back(get_string_vec(r));
  }

  // from, to, send, recv
  const std::uint64_t n_samples = get_count(r, 8 + 8 + 8 + 8);
  res.sync_samples.reserve(n_samples);
  for (std::uint64_t i = 0; i < n_samples; ++i) {
    clocksync::SyncSample s;
    s.from = r.str();
    s.to = r.str();
    s.send = LocalTime{r.i64()};
    s.recv = LocalTime{r.i64()};
    res.sync_samples.push_back(std::move(s));
  }

  // name, start, end, clock (alpha, beta, granularity)
  const std::uint64_t n_hosts = get_count(r, 8 + 8 + 8 + 3 * 8);
  res.hosts.reserve(n_hosts);
  res.start_local.reserve(n_hosts);
  res.end_local.reserve(n_hosts);
  res.true_clocks.reserve(n_hosts);
  for (std::uint64_t i = 0; i < n_hosts; ++i) {
    res.hosts.push_back(r.str());
    res.start_local.push_back(LocalTime{r.i64()});
    res.end_local.push_back(LocalTime{r.i64()});
    res.true_clocks.push_back(get_clock(r));
  }

  // name, state-sequence count, crash count
  const std::uint64_t n_machines = get_count(r, 8 + 8 + 8);
  res.truth.machines.reserve(n_machines);
  res.truth.state_seq.reserve(n_machines);
  res.truth.crashes.reserve(n_machines);
  for (std::uint64_t i = 0; i < n_machines; ++i) {
    res.truth.machines.push_back(r.str());
    const std::uint64_t n_entries = get_count(r, 8 + 8);  // time, state
    std::vector<std::pair<SimTime, std::string>> seq;
    seq.reserve(n_entries);
    for (std::uint64_t j = 0; j < n_entries; ++j) {
      const SimTime t{r.i64()};
      seq.emplace_back(t, r.str());
    }
    res.truth.state_seq.push_back(std::move(seq));
    const std::uint64_t n_times = get_count(r, 8);
    std::vector<SimTime> times;
    times.reserve(n_times);
    for (std::uint64_t j = 0; j < n_times; ++j)
      times.push_back(SimTime{r.i64()});
    res.truth.crashes.push_back(std::move(times));
  }
  // machine, fault, at
  const std::uint64_t n_inj = get_count(r, 8 + 8 + 8);
  res.truth.injections.reserve(n_inj);
  for (std::uint64_t i = 0; i < n_inj; ++i) {
    TrueInjection inj;
    inj.machine = r.str();
    inj.fault = r.str();
    inj.at = SimTime{r.i64()};
    res.truth.injections.push_back(std::move(inj));
  }

  res.start_phys = SimTime{r.i64()};
  res.end_phys = SimTime{r.i64()};
  res.completed = r.boolean();
  res.timed_out = r.boolean();
  res.dropped_notifications = r.u64();
  res.control_messages = r.u64();
  res.app_messages = r.u64();
  return res;
}

}  // namespace

// --- public API --------------------------------------------------------------

std::vector<std::uint8_t> encode_experiment_params(const ExperimentParams& p) {
  Writer w;
  put_header(w, kKindParams);
  put_params_body(w, p);
  return w.take();
}

ExperimentParams decode_experiment_params(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  check_header(r, kKindParams);
  ExperimentParams p = get_params_body(r);
  r.expect_done();
  return p;
}

std::vector<std::uint8_t> encode_experiment_result(const ExperimentResult& res) {
  Writer w;
  put_header(w, kKindResult);
  put_result_body(w, res);
  return w.take();
}

void encode_experiment_result(const ExperimentResult& res,
                              std::vector<std::uint8_t>& out) {
  Writer w(out);
  put_header(w, kKindResult);
  put_result_body(w, res);
}

ExperimentResult decode_experiment_result(const std::uint8_t* data,
                                          std::size_t size,
                                          ResultInterner* interner) {
  Reader r(data, size);
  check_header(r, kKindResult);
  ExperimentResult res = get_result_body(r, interner);
  r.expect_done();
  return res;
}

ExperimentResult decode_experiment_result(const std::uint8_t* data,
                                          std::size_t size) {
  return decode_experiment_result(data, size, nullptr);
}

ExperimentResult decode_experiment_result(const std::vector<std::uint8_t>& bytes) {
  return decode_experiment_result(bytes.data(), bytes.size(), nullptr);
}

std::vector<std::uint8_t> encode_study_params(const StudyParams& study) {
  if (!study.make_params)
    throw ConfigError("wire: study '" + study.name + "' has no make_params");
  Writer w;
  put_header(w, kKindStudy);
  w.str(study.name);
  const int n = study.experiments;
  w.u32(n < 0 ? 0u : static_cast<std::uint32_t>(n));
  for (int k = 0; k < n; ++k) put_params_body(w, study.make_params(k));
  return w.take();
}

StudyParams decode_study_params(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  check_header(r, kKindStudy);
  StudyParams study;
  study.name = r.str();
  const std::uint32_t n = r.u32();
  // Same bound as get_count(). A params body is at least: seed, three
  // counts, design, seven costs, two fabric, two central and three sync
  // fields, two LANs of four, and the four clock and limit fields.
  if (n > r.remaining() / (8 + 3 * 8 + 1 + 7 * 8 + 2 * 8 + 2 * 8 + 3 * 8 +
                           2 * 4 * 8 + 4 * 8))
    throw DecodeError("wire: study experiment count " + std::to_string(n) +
                      " exceeds remaining bytes");
  auto materialized = std::make_shared<std::vector<ExperimentParams>>();
  materialized->reserve(n);
  for (std::uint32_t k = 0; k < n; ++k)
    materialized->push_back(get_params_body(r));
  r.expect_done();
  study.experiments = static_cast<int>(n);
  study.make_params = [materialized](int k) {
    if (k < 0 || static_cast<std::size_t>(k) >= materialized->size())
      throw ConfigError("wire: replayed study index " + std::to_string(k) +
                        " out of range");
    return (*materialized)[static_cast<std::size_t>(k)];
  };
  return study;
}

std::string experiment_cache_key(const ExperimentParams& p) {
  return util::sha256_hex(encode_experiment_params(p));
}

// --- worker frame protocol ---------------------------------------------------

namespace {

Writer frame_writer(WorkerFrame type) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  return w;
}

/// Reader positioned after the type byte, which must match `expected`.
Reader frame_reader(const std::vector<std::uint8_t>& frame, WorkerFrame expected) {
  if (worker_frame_type(frame) != expected)
    throw DecodeError("worker frame: expected frame type " +
                      std::to_string(static_cast<int>(expected)) + ", got " +
                      std::to_string(static_cast<int>(frame[0])));
  Reader r(frame);
  r.u8();  // consume the type byte
  return r;
}

}  // namespace

WireErrorCategory classify_error(const std::exception& e) {
  if (dynamic_cast<const ConfigError*>(&e) != nullptr)
    return WireErrorCategory::Config;
  if (dynamic_cast<const LogicError*>(&e) != nullptr)
    return WireErrorCategory::Logic;
  return WireErrorCategory::Runtime;
}

void rethrow_wire_error(WireErrorCategory category, const std::string& message) {
  switch (category) {
    case WireErrorCategory::Config:
      throw ConfigError(message);
    case WireErrorCategory::Logic:
      throw LogicError(message);
    case WireErrorCategory::Runtime:
      break;
  }
  throw std::runtime_error(message);
}

WorkerFrame worker_frame_type(const std::vector<std::uint8_t>& frame) {
  if (frame.empty()) throw DecodeError("worker frame: empty frame");
  // Any byte converts (the enum's underlying type is u8); only the named
  // types pass, so the reserved ones (see WorkerFrame) are rejected too.
  const auto type = static_cast<WorkerFrame>(frame[0]);
  switch (type) {
    case WorkerFrame::Hello:
    case WorkerFrame::HelloAck:
    case WorkerFrame::Lease:
    case WorkerFrame::Heartbeat:
    case WorkerFrame::LeaseDone:
    case WorkerFrame::Shutdown:
    case WorkerFrame::ResultBatch:
      return type;
  }
  throw DecodeError("worker frame: unknown frame type " +
                    std::to_string(frame[0]));
}

std::vector<std::uint8_t> encode_hello_frame(
    const std::vector<StudyParams>* studies,
    std::uint32_t heartbeat_interval_ms) {
  Writer w = frame_writer(WorkerFrame::Hello);
  w.u16(kWorkerProtocolVersion);
  w.u32(heartbeat_interval_ms);
  w.boolean(studies != nullptr);
  if (studies != nullptr) {
    w.u32(static_cast<std::uint32_t>(studies->size()));
    for (const StudyParams& study : *studies) {
      const std::vector<std::uint8_t> encoded = encode_study_params(study);
      w.u64(encoded.size());
      w.bytes(encoded.data(), encoded.size());
    }
  }
  return w.take();
}

HelloFrame decode_hello_frame(const std::vector<std::uint8_t>& frame) {
  Reader r = frame_reader(frame, WorkerFrame::Hello);
  HelloFrame hello;
  hello.protocol_version = r.u16();
  hello.heartbeat_interval_ms = r.u32();
  if (hello.heartbeat_interval_ms == 0)
    throw DecodeError("worker frame: Hello without a heartbeat interval");
  if (r.boolean()) {
    const std::uint32_t count = r.u32();
    // Every study takes at least its length prefix and a study envelope's
    // header (magic, version, kind), name and experiment count, so a
    // corrupt count must not become a giant reserve().
    if (count > r.remaining() / (8 + 4 + 2 + 1 + 8 + 4))
      throw DecodeError("worker frame: Hello study count " +
                        std::to_string(count) + " exceeds remaining bytes");
    hello.studies.emplace();
    hello.studies->reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t size = r.u64();
      const std::size_t start = r.position();
      r.skip(size);  // DecodeError when the study overruns the frame
      hello.studies->push_back(decode_study_params(std::vector<std::uint8_t>(
          frame.begin() + static_cast<std::ptrdiff_t>(start),
          frame.begin() + static_cast<std::ptrdiff_t>(r.position()))));
    }
  }
  r.expect_done();
  return hello;
}

std::vector<std::uint8_t> encode_hello_ack_frame() {
  Writer w = frame_writer(WorkerFrame::HelloAck);
  w.u16(kWorkerProtocolVersion);
  return w.take();
}

std::uint16_t decode_hello_ack_frame(const std::vector<std::uint8_t>& frame) {
  Reader r = frame_reader(frame, WorkerFrame::HelloAck);
  const std::uint16_t version = r.u16();
  r.expect_done();
  return version;
}

std::vector<std::uint8_t> encode_lease_frame(const LeaseFrame& lease) {
  Writer w = frame_writer(WorkerFrame::Lease);
  w.u32(lease.id);
  w.u32(lease.study);
  w.u32(lease.lo);
  w.u32(lease.hi);
  return w.take();
}

LeaseFrame decode_lease_frame(const std::vector<std::uint8_t>& frame) {
  Reader r = frame_reader(frame, WorkerFrame::Lease);
  LeaseFrame lease;
  lease.id = r.u32();
  lease.study = r.u32();
  lease.lo = r.u32();
  lease.hi = r.u32();
  r.expect_done();
  if (lease.lo > lease.hi)
    throw DecodeError("worker frame: inverted lease [" +
                      std::to_string(lease.lo) + ", " +
                      std::to_string(lease.hi) + ")");
  return lease;
}

std::vector<std::uint8_t> encode_heartbeat_frame(
    const WorkerStatsSnapshot& stats) {
  Writer w = frame_writer(WorkerFrame::Heartbeat);
  w.u64(stats.experiments_completed);
  w.f64(stats.ewma_latency_us);
  for (const std::uint32_t bucket : stats.histogram.buckets) w.u32(bucket);
  w.u64(stats.bytes_encoded);
  w.u64(stats.batches_flushed);
  return w.take();
}

WorkerStatsSnapshot decode_heartbeat_frame(
    const std::vector<std::uint8_t>& frame) {
  Reader r = frame_reader(frame, WorkerFrame::Heartbeat);
  WorkerStatsSnapshot stats;
  stats.experiments_completed = r.u64();
  stats.ewma_latency_us = r.f64();
  for (std::uint32_t& bucket : stats.histogram.buckets) bucket = r.u32();
  stats.bytes_encoded = r.u64();
  stats.batches_flushed = r.u64();
  r.expect_done();
  return stats;
}

std::vector<std::uint8_t> encode_lease_done_frame(std::uint32_t lease_id) {
  Writer w = frame_writer(WorkerFrame::LeaseDone);
  w.u32(lease_id);
  return w.take();
}

std::uint32_t decode_lease_done_frame(const std::vector<std::uint8_t>& frame) {
  Reader r = frame_reader(frame, WorkerFrame::LeaseDone);
  const std::uint32_t id = r.u32();
  r.expect_done();
  return id;
}

// --- batched results ---------------------------------------------------------

void begin_result_batch(std::vector<std::uint8_t>& batch) {
  batch.clear();
  batch.push_back(static_cast<std::uint8_t>(WorkerFrame::ResultBatch));
}

bool result_batch_empty(const std::vector<std::uint8_t>& batch) {
  return batch.size() <= 1;
}

void append_result_ok_entry(std::vector<std::uint8_t>& batch,
                            std::uint32_t index,
                            const ExperimentResult& result) {
  Writer w(batch);
  w.u8(0);  // ok
  w.u32(index);
  // Length prefix is only known after the envelope is written: reserve the
  // slot, encode in place, patch.
  const std::size_t len_pos = w.size();
  w.u64(0);
  put_header(w, kKindResult);
  put_result_body(w, result);
  w.patch_u64(len_pos, w.size() - len_pos - 8);
}

void append_result_error_entry(std::vector<std::uint8_t>& batch,
                               std::uint32_t index, WireErrorCategory category,
                               const std::string& message) {
  Writer w(batch);
  w.u8(1);  // error
  w.u32(index);
  w.u8(static_cast<std::uint8_t>(category));
  w.str(message);
}

namespace {

/// Shared walk over a batch's entries. decode=false is count-only mode:
/// envelope bytes are skipped, not decoded.
std::vector<ResultFrame> walk_result_batch(
    const std::vector<std::uint8_t>& frame, bool decode,
    ResultInterner* interner = nullptr) {
  Reader r = frame_reader(frame, WorkerFrame::ResultBatch);
  std::vector<ResultFrame> entries;
  while (!r.done()) {
    ResultFrame entry;
    const std::uint8_t status = r.u8();
    if (status > 1)
      throw DecodeError("worker frame: batch entry status byte out of range");
    entry.ok = status == 0;
    entry.index = r.u32();
    if (entry.ok) {
      const std::uint64_t len = r.u64();
      if (len > r.remaining())
        throw DecodeError("worker frame: batch entry length " +
                          std::to_string(len) + " exceeds remaining bytes");
      if (decode)
        entry.result = decode_experiment_result(frame.data() + r.position(),
                                                static_cast<std::size_t>(len),
                                                interner);
      r.skip(len);
    } else {
      const std::uint8_t category = r.u8();
      if (category > static_cast<std::uint8_t>(WireErrorCategory::Logic))
        throw DecodeError("worker frame: error category byte out of range");
      entry.category = static_cast<WireErrorCategory>(category);
      entry.message = r.str();
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace

std::vector<ResultFrame> decode_result_batch_frame(
    const std::vector<std::uint8_t>& frame) {
  return walk_result_batch(frame, /*decode=*/true);
}

std::vector<ResultFrame> decode_result_batch_frame(
    const std::vector<std::uint8_t>& frame, ResultInterner* interner) {
  return walk_result_batch(frame, /*decode=*/true, interner);
}

std::size_t result_batch_entry_count(const std::vector<std::uint8_t>& frame) {
  return walk_result_batch(frame, /*decode=*/false).size();
}

std::vector<std::uint8_t> encode_shutdown_frame() {
  return frame_writer(WorkerFrame::Shutdown).take();
}

}  // namespace loki::runtime
