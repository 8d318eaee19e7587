#include "net/daemon.hpp"

#include <poll.h>

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/invariants.hpp"
#include "core/rm_step.hpp"
#include "net/snapshot.hpp"
#include "obs/replay.hpp"
#include "rm/allocation.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace ps::net {

namespace {

/// Round-latency bucket edges (seconds): sub-millisecond loopback rounds
/// through multi-second stalls.
constexpr double kRoundLatencyBounds[] = {0.0005, 0.001, 0.002, 0.005,
                                          0.01,   0.02,  0.05,  0.1,
                                          0.25,   0.5,   1.0,   2.5,
                                          5.0};

/// `watts` plus one job's CPU then GPU caps, added one by one: the order
/// every watt total of the daemon is summed in.
double plus_caps(double watts, const std::vector<double>& caps,
                 const std::vector<double>& gpu_caps) {
  for (const double cap : caps) {
    watts += cap;
  }
  for (const double cap : gpu_caps) {
    watts += cap;
  }
  return watts;
}

/// Batches one job's caps into a rack reply: the reply's round is its
/// newest sequence and its rack budget the sum of its caps.
void add_to_rack_reply(core::RackPolicyMessage& reply,
                       core::PolicyMessage policy) {
  reply.round = std::max(reply.round, policy.sequence);
  reply.rack_budget_watts = plus_caps(
      reply.rack_budget_watts, policy.host_caps_watts,
      policy.host_gpu_caps_watts);
  reply.policies.push_back(std::move(policy));
}

}  // namespace

PowerDaemon::PowerDaemon(const DaemonOptions& options)
    : options_(options),
      policy_(core::make_policy(options.policy)),
      loop_(options.event_backend),
      sessions_(loop_,
                [this](int fd) { close_session(fd, /*protocol_error=*/false); }) {
  PS_REQUIRE(options.system_budget_watts > 0.0,
             "system budget must be positive");
  PS_REQUIRE(options.min_jobs > 0, "launch barrier needs at least one job");
  PS_REQUIRE(options.tick_interval.count() > 0,
             "tick interval must be positive");
  PS_REQUIRE(options.reclaim_timeout.count() >= 0,
             "reclaim timeout must be non-negative");
  PS_REQUIRE(options.heartbeat_timeout.count() > 0,
             "heartbeat timeout must be positive");
  PS_REQUIRE(options.quarantine_errors > 0,
             "quarantine threshold must be positive");
  for (std::size_t r = 0; r < options.budget_revisions.size(); ++r) {
    PS_REQUIRE(options.budget_revisions[r].budget_watts > 0.0,
               "scheduled budget revision must be positive");
    PS_REQUIRE(r == 0 || options.budget_revisions[r - 1].at_epoch <=
                             options.budget_revisions[r].at_epoch,
               "scheduled budget revisions must be sorted by at_epoch");
  }
  budget_watts_ = options.system_budget_watts;
  fence_epoch_ = options.fence_epoch;
  if (options_.initial_state) {
    // A promoted standby boots over the replicated state it applied —
    // the in-memory analogue of a disk-snapshot restore, with the same
    // authority rules.
    restore_state(*options_.initial_state);
  } else {
    restore_from_snapshot();
  }
  stats_.budget_watts = budget_watts_;
  stats_.budget_epoch = budget_epoch_;
  stats_.fence_epoch = fence_epoch_;
  if (options_.obs.metrics != nullptr) {
    round_latency_ = &options_.obs.metrics->histogram(
        "net.daemon.round_seconds", kRoundLatencyBounds);
  }
  loop_.set_tick(options_.tick_interval, [this] { on_tick(); });
}

PowerDaemon::~PowerDaemon() = default;

void PowerDaemon::restore_from_snapshot() {
  if (options_.snapshot_path.empty()) {
    return;
  }
  const auto snapshot = load_snapshot(options_.snapshot_path);
  if (!snapshot) {
    return;  // no snapshot (or a corrupt one): cold start
  }
  restore_state(*snapshot);
}

void PowerDaemon::restore_state(const DaemonSnapshot& snapshot) {
  if (snapshot.budget_epoch > 0) {
    // The budget was renegotiated before the crash. The snapshot is the
    // authority: restoring the configured budget would resurrect a
    // pre-brownout envelope the clients already heard revoked.
    budget_watts_ = snapshot.system_budget_watts;
    budget_epoch_ = snapshot.budget_epoch;
    // Scheduled revisions the previous incarnation already adopted must
    // not replay (their epochs are not newer).
    while (next_scheduled_revision_ < options_.budget_revisions.size() &&
           options_.budget_revisions[next_scheduled_revision_].epoch <=
               budget_epoch_) {
      ++next_scheduled_revision_;
    }
  } else if (snapshot.system_budget_watts != options_.system_budget_watts) {
    // The persisted caps were computed under a different facility budget;
    // restoring them could violate the new one. Cold start instead.
    return;
  }
  // A restart of a once-promoted daemon must not regress its fence: the
  // highest fence its clients ratcheted is the persisted one.
  fence_epoch_ = std::max(fence_epoch_, snapshot.fence_epoch);
  launch_barrier_met_ = snapshot.launch_barrier_met;
  allocation_epoch_base_ = snapshot.allocations;
  const auto now = Clock::now();
  for (const SnapshotJob& job : snapshot.jobs) {
    JobRecord record;
    record.last_caps_watts = job.caps_watts;
    record.last_gpu_caps_watts = job.gpu_caps_watts;
    record.last_sequence = job.sequence;
    record.have_policy = true;
    record.session_fd = -1;
    record.disconnected_at = now;  // the grace clock starts at boot
    jobs_.emplace(job.name, std::move(record));
    ++stats_.jobs_restored;
  }
  options_.obs.count("net.daemon.jobs_restored", snapshot.jobs.size());
  options_.obs.emit(
      allocation_epoch_base_, obs::cat::kDaemon, "restore",
      {{"jobs", static_cast<std::uint64_t>(snapshot.jobs.size())},
       {"budget_watts", budget_watts_},
       {"budget_epoch", budget_epoch_}});
}

std::uint64_t PowerDaemon::completed_rounds() const {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  return allocation_epoch_base_ + stats_.allocations;
}

void PowerDaemon::listen_unix(const std::string& path) {
  listeners_.push_back(net::listen_unix(path));
  const std::size_t index = listeners_.size() - 1;
  loop_.add_fd(listeners_.back().fd(), POLLIN,
               [this, index](short) { on_listener_ready(index); });
}

void PowerDaemon::listen_tcp(std::uint16_t port) {
  listeners_.push_back(net::listen_tcp(port, &tcp_port_));
  const std::size_t index = listeners_.size() - 1;
  loop_.add_fd(listeners_.back().fd(), POLLIN,
               [this, index](short) { on_listener_ready(index); });
}

void PowerDaemon::adopt(Socket socket) {
  PS_REQUIRE(socket.valid(), "cannot adopt an invalid socket");
  adopt(make_transport(std::move(socket)));
}

void PowerDaemon::adopt(std::unique_ptr<Transport> transport) {
  PS_REQUIRE(transport != nullptr && transport->valid(),
             "cannot adopt an invalid transport");
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    pending_adoptions_.push_back(std::move(transport));
  }
  loop_.wake();
}

void PowerDaemon::run() {
  adopt_pending_transports();
  apply_pending_revisions();
  while (loop_.run_once(std::chrono::milliseconds(-1))) {
    adopt_pending_transports();
    apply_pending_revisions();
  }
}

void PowerDaemon::stop() {
  loop_.stop();
}

void PowerDaemon::revise_budget(const core::BudgetRevision& revision) {
  PS_REQUIRE(revision.budget_watts > 0.0,
             "budget revision must be positive");
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    pending_revisions_.push_back(revision);
  }
  loop_.wake();
}

void PowerDaemon::apply_pending_revisions() {
  std::vector<core::BudgetRevision> revisions;
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    revisions.swap(pending_revisions_);
  }
  for (const core::BudgetRevision& revision : revisions) {
    apply_revision(revision);
  }
}

void PowerDaemon::apply_revision(const core::BudgetRevision& revision) {
  if (revision.epoch <= budget_epoch_) {
    // A replayed or superseded revision: rejecting it (rather than
    // re-applying) is what makes delivery idempotent.
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.budget_revisions_stale;
    }
    options_.obs.count("net.daemon.revisions_stale");
    options_.obs.emit(revision.at_epoch, obs::cat::kDaemon, "revision",
                      {{"revision_epoch", revision.epoch},
                       {"budget_watts", revision.budget_watts},
                       {"applied", false}});
    return;
  }
  budget_watts_ = revision.budget_watts;
  budget_epoch_ = revision.epoch;
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.budget_revisions_applied;
    stats_.budget_watts = budget_watts_;
    stats_.budget_epoch = budget_epoch_;
  }
  options_.obs.count("net.daemon.revisions_applied");
  options_.obs.emit(revision.at_epoch, obs::cat::kDaemon, "revision",
                    {{"revision_epoch", revision.epoch},
                     {"budget_watts", revision.budget_watts},
                     {"applied", true}});
  clamp_stored_caps();
  push_budget_to_sessions();
  // The revised budget must survive a restart: persist before any
  // further reply can leave under the new epoch.
  maybe_write_snapshot();
}

void PowerDaemon::push_budget_to_sessions() {
  core::BudgetMessage message;
  message.epoch = budget_epoch_;
  message.budget_watts = budget_watts_;
  const std::string frame = encode_frame(
      serialize(message, core::WireFidelity::kExact));
  std::vector<int> fds;
  fds.reserve(sessions_.size());
  for (const auto& [fd, session] : sessions_.map()) {
    if (session.registered) {
      fds.push_back(fd);
    }
  }
  std::size_t pushed = 0;
  {
    // Coalesce: one flush per session once every push is queued; a dead
    // peer is closed when the batch drains, never mid-collection.
    const SessionTable::Batch batch(sessions_);
    for (const int fd : fds) {
      NetSession* session = sessions_.find(fd);
      if (session == nullptr) {
        continue;  // closed since collection
      }
      sessions_.queue_frame(fd, *session, frame);
      ++pushed;
    }
  }
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  stats_.budget_pushes += pushed;
}

void PowerDaemon::clamp_stored_caps() {
  // If the stored caps no longer fit the revised budget, clamp them onto
  // it (floors and classes as each job last reported) so a resend or a
  // snapshot restore cannot reprogram a superseded allocation.
  rm::PowerAllocation stored;
  core::PolicyContext context;
  context.system_budget_watts = budget_watts_;
  std::vector<JobRecord*> records;
  for (auto& [name, record] : jobs_) {
    if (!record.have_policy) {
      continue;
    }
    stored.job_host_caps.push_back(record.last_caps_watts);
    stored.job_host_gpu_caps.push_back(record.last_gpu_caps_watts);
    runtime::JobCharacterization& job = context.jobs.emplace_back();
    if (const auto& latest = record.latch.latest()) {
      job.min_settable_cap_watts = latest->min_settable_cap_watts;
      job.gpu_min_cap_watts = latest->gpu_min_cap_watts;
      job.sla_class = latest->sla_class;
    }
    records.push_back(&record);
  }
  if (stored.within_budget(budget_watts_, stored.budget_tolerance_watts())) {
    return;  // the allocation still fits; nothing to clamp
  }
  rm::PowerAllocation clamped = core::clamp_to_budget(context, stored);
  for (std::size_t j = 0; j < records.size(); ++j) {
    records[j]->last_caps_watts = std::move(clamped.job_host_caps[j]);
    records[j]->last_gpu_caps_watts = std::move(clamped.job_host_gpu_caps[j]);
  }
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  ++stats_.emergency_clamps;
}

DaemonStats PowerDaemon::stats() const {
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  return stats_;
}

void PowerDaemon::adopt_pending_transports() {
  std::vector<std::unique_ptr<Transport>> adopted;
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    adopted.swap(pending_adoptions_);
  }
  for (std::unique_ptr<Transport>& transport : adopted) {
    add_session(std::move(transport));
  }
}

void PowerDaemon::add_session(std::unique_ptr<Transport> transport) {
  if (options_.transport_wrapper) {
    transport = options_.transport_wrapper(std::move(transport));
    PS_REQUIRE(transport != nullptr && transport->valid(),
               "transport wrapper returned an invalid transport");
  }
  sessions_.add(std::move(transport), [this](int fd, short revents) {
    on_session_ready(fd, revents);
  });
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.sessions_accepted;
  }
  options_.obs.count("net.daemon.sessions_accepted");
  options_.obs.emit(completed_rounds(), obs::cat::kNetIo, "session_accepted");
}

void PowerDaemon::on_listener_ready(std::size_t listener_index) {
  while (auto socket = listeners_[listener_index].accept()) {
    add_session(make_transport(std::move(*socket)));
  }
}

void PowerDaemon::close_session(int fd, bool protocol_error) {
  NetSession* session = sessions_.find(fd);
  if (session == nullptr) {
    return;  // idempotent: double-close (e.g. close during flush) no-ops
  }
  const bool registered = session->registered;
  const std::string job_name = session->job_name;
  const bool is_rack = session->is_rack;
  // The peer observes EOF the moment the fd closes, so keep the
  // transport alive until every consequence of this close (protocol
  // error attribution, quarantine, eviction) is recorded: a stats()
  // reader who saw the disconnect must see final counters.
  const std::unique_ptr<Transport> transport = sessions_.remove(fd);
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.sessions_closed;
    if (protocol_error) {
      ++stats_.protocol_errors;
    }
    if (is_rack && stats_.rack_sessions > 0) {
      --stats_.rack_sessions;
    }
  }
  options_.obs.count("net.daemon.sessions_closed");
  options_.obs.emit(completed_rounds(), obs::cat::kNetIo, "session_closed",
                    {{"job", job_name}, {"protocol_error", protocol_error}});

  bool quarantined = false;
  if (registered && !is_rack) {
    const auto jit = jobs_.find(job_name);
    // The fd guard keeps a stale close (a late error on a connection the
    // job already replaced) from detaching the job's live session.
    if (jit != jobs_.end() && jit->second.session_fd == fd) {
      JobRecord& record = jit->second;
      record.session_fd = -1;
      record.disconnected_at = Clock::now();
      if (protocol_error) {
        ++record.protocol_errors;
        if (record.protocol_errors >= options_.quarantine_errors) {
          record_quarantine(job_name,
                            Clock::now() + options_.quarantine_period);
          {
            const std::lock_guard<std::mutex> lock(shared_mutex_);
            ++stats_.quarantines;
          }
          options_.obs.count("net.daemon.quarantines");
          options_.obs.emit(completed_rounds(), obs::cat::kNetIo,
                            "quarantine", {{"job", job_name}});
          evict_job(job_name);
          quarantined = true;
        }
      }
    }
  } else if (registered && is_rack) {
    // Every job the rack carried enters grace together; each is still
    // reclaimed exactly once (by the ordinary grace-expiry eviction) if
    // the aggregator does not reconnect in time. Rack protocol errors
    // are not attributed to individual jobs: an aggregator is trusted
    // infrastructure, and quarantining a whole rack's jobs for one bad
    // frame would amplify a transient fault into a mass eviction. The
    // rack's jobs are exactly the records bound to its fd.
    const auto now = Clock::now();
    for (auto& [name, record] : jobs_) {
      if (record.session_fd == fd) {
        record.session_fd = -1;
        record.disconnected_at = now;
      }
    }
  }
  transport->close();
  // Membership may have changed (a quarantined job frees its watts); a
  // disconnect within grace does not, but a pending round may now be
  // waiting only on jobs that can still answer.
  if (quarantined) {
    try_allocate();
  }
}

void PowerDaemon::record_quarantine(const std::string& name,
                                    Clock::time_point until) {
  quarantine_[name] = until;
  if (options_.max_quarantine_entries > 0) {
    while (quarantine_.size() > options_.max_quarantine_entries) {
      // Bounded bookkeeping: shed the entry closest to expiry — the one
      // whose bar was about to lift anyway — so an unbounded churn of
      // misbehaving client identities cannot grow this map forever.
      auto victim = quarantine_.begin();
      for (auto it = std::next(quarantine_.begin()); it != quarantine_.end();
           ++it) {
        if (it->second < victim->second) {
          victim = it;
        }
      }
      quarantine_.erase(victim);
      {
        const std::lock_guard<std::mutex> lock(shared_mutex_);
        ++stats_.quarantine_entries_dropped;
      }
      options_.obs.count("net.daemon.quarantine_entries_dropped");
    }
  }
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    stats_.quarantine_entries = quarantine_.size();
  }
  options_.obs.set_gauge("net.daemon.quarantine_entries",
                         static_cast<double>(quarantine_.size()));
}

void PowerDaemon::prune_quarantine(Clock::time_point now) {
  const std::size_t before = quarantine_.size();
  for (auto it = quarantine_.begin(); it != quarantine_.end();) {
    if (now >= it->second) {
      it = quarantine_.erase(it);  // served its time; forget the name
    } else {
      ++it;
    }
  }
  if (quarantine_.size() != before) {
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      stats_.quarantine_entries = quarantine_.size();
    }
    options_.obs.set_gauge("net.daemon.quarantine_entries",
                           static_cast<double>(quarantine_.size()));
  }
}

double PowerDaemon::stored_watts() const {
  double watts = 0.0;
  for (const auto& [name, record] : jobs_) {
    watts = plus_caps(watts, record.last_caps_watts,
                      record.last_gpu_caps_watts);
  }
  return watts;
}

void PowerDaemon::evict_job(const std::string& name) {
  const auto it = jobs_.find(name);
  if (it == jobs_.end()) {
    return;  // idempotent: watts can only be returned once
  }
  const double stored_before = stored_watts();
  const JobRecord record = std::move(it->second);
  jobs_.erase(it);

  if (record.session_fd >= 0) {
    NetSession* session = sessions_.find(record.session_fd);
    // A rack session multiplexes many jobs: evicting one (heartbeat stall,
    // quarantine) must not sever the aggregator's link and take the whole
    // rack down with it. Erasing the record is all the unbinding it needs.
    if (session != nullptr && !session->is_rack) {
      const std::unique_ptr<Transport> transport =
          sessions_.remove(record.session_fd);
      transport->close();
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.sessions_closed;
    }
  }

  const double reclaimed =
      plus_caps(0.0, record.last_caps_watts, record.last_gpu_caps_watts);
  const double stored_after = stored_watts();
  // Exactly-once reclamation in watt terms: the pool before the eviction
  // equals what the job freed plus what everyone else still holds.
  core::invariants::check_watts_conserved(stored_before, reclaimed,
                                          stored_after, 1e-9,
                                          "daemon.evict");
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.jobs_evicted;
    if (record.have_policy) {
      stats_.watts_reclaimed += reclaimed;
    }
    if (record.session_fd < 0 &&
        record.disconnected_at != Clock::time_point{}) {
      stats_.reclaim_seconds_total +=
          std::chrono::duration<double>(Clock::now() -
                                        record.disconnected_at)
              .count();
    }
  }
  options_.obs.count("net.daemon.jobs_evicted");
  options_.obs.emit(completed_rounds(), obs::cat::kNetIo, "evict",
                    {{"job", name},
                     {"watts_reclaimed", record.have_policy ? reclaimed : 0.0}});
  maybe_write_snapshot();
}

void PowerDaemon::on_session_ready(int fd, short revents) {
  {
    NetSession* session = sessions_.find(fd);
    if (session == nullptr) {
      return;
    }
    session->last_activity = Clock::now();

    if ((revents & POLLOUT) != 0) {
      sessions_.flush(fd, *session);
      session = sessions_.find(fd);
      if (session == nullptr) {
        return;  // flush hit a dead peer and closed the session
      }
    }
    if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      return;
    }

    char buffer[4096];
    for (;;) {
      const IoResult result =
          session->transport->read_some(buffer, sizeof(buffer));
      if (result.status == IoStatus::kWouldBlock) {
        break;
      }
      if (result.status == IoStatus::kClosed) {
        close_session(fd, /*protocol_error=*/false);
        return;
      }
      try {
        session->decoder.feed(std::string_view(buffer, result.bytes));
        while (auto payload = session->decoder.next()) {
          handle_frame(fd, *session, *payload);
          session = sessions_.find(fd);
          if (session == nullptr) {
            return;  // a resend hit a dead peer and closed this session
          }
        }
      } catch (const Error&) {
        // Oversized frame, checksum mismatch, or malformed message: the
        // stream offset can no longer be trusted, drop the connection.
        close_session(fd, /*protocol_error=*/true);
        return;
      }
    }
  }
  try_allocate();
}

void PowerDaemon::handle_frame(int fd, NetSession& session,
                               const std::string& payload) {
  const core::WireMessageKind kind = core::wire_message_kind(payload);
  if (kind == core::WireMessageKind::kRackSample) {
    PS_REQUIRE(options_.root_mode,
               "rack frames require a root-mode daemon");
    handle_rack_frame(fd, session, payload);
    return;
  }
  // Everything else must be a sample; parse_sample_message rejects the
  // rest (including rack frames on a flat daemon) as protocol errors.
  handle_sample_frame(fd, session, core::parse_sample_message(payload));
}

PowerDaemon::JobRecord& PowerDaemon::bind_job_record(
    int fd, const std::string& job_name) {
  const auto now = Clock::now();
  const auto quarantined = quarantine_.find(job_name);
  if (quarantined != quarantine_.end()) {
    if (now < quarantined->second) {
      {
        const std::lock_guard<std::mutex> lock(shared_mutex_);
        ++stats_.quarantine_rejections;
      }
      options_.obs.count("net.daemon.quarantine_rejections");
      throw InvalidArgument("job '" + job_name + "' is quarantined");
    }
    quarantine_.erase(quarantined);  // served its time
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      stats_.quarantine_entries = quarantine_.size();
    }
  }
  auto it = jobs_.find(job_name);
  if (it != jobs_.end()) {
    // A rack session re-binds its own jobs every round (fd already
    // bound); only a *different* live session is a registration clash.
    PS_REQUIRE(it->second.session_fd < 0 || it->second.session_fd == fd,
               "job '" + job_name + "' is already registered");
    if (it->second.session_fd != fd) {
      it->second.session_fd = fd;
      {
        const std::lock_guard<std::mutex> lock(shared_mutex_);
        ++stats_.sessions_rehydrated;
      }
      options_.obs.count("net.daemon.sessions_rehydrated");
      options_.obs.emit(completed_rounds(), obs::cat::kNetIo, "rehydrate",
                        {{"job", job_name}});
    }
  } else {
    JobRecord record;
    record.session_fd = fd;
    it = jobs_.emplace(job_name, std::move(record)).first;
  }
  return it->second;
}

void PowerDaemon::send_budget_resync(int fd, NetSession& session) {
  if (budget_epoch_ == 0) {
    return;
  }
  // Resync: a client registering (or reconnecting after an outage)
  // must hear the current budget epoch before any caps, or it would
  // reject them as stale / accept superseded ones.
  core::BudgetMessage budget;
  budget.epoch = budget_epoch_;
  budget.budget_watts = budget_watts_;
  sessions_.queue_frame(
      fd, session,
      encode_frame(serialize(budget, core::WireFidelity::kExact)));
  if (!sessions_.contains(fd)) {
    throw InvalidArgument("session closed during budget resync");
  }
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  ++stats_.budget_pushes;
}

bool PowerDaemon::offer_sample(JobRecord& record, core::SampleMessage sample,
                               Clock::time_point now) {
  if (record.have_policy && record.last_sequence >= sample.sequence) {
    // A sequence the daemon already answered: the reply was lost (to a
    // drop, a corrupted frame, or a daemon restart). Resending the
    // stored caps — instead of re-running the round — keeps a retried
    // sample from tearing a round in half when its peers have moved on.
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.samples_received;
      ++stats_.samples_stale;
    }
    options_.obs.count("net.daemon.samples_stale");
    return true;
  }
  const bool accepted = record.latch.offer(std::move(sample));
  if (accepted) {
    // The heartbeat clock measures fresh-sample progress, not traffic: a
    // client looping on stale sequences must still stall-evict.
    record.last_sample_at = now;
  }
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.samples_received;
    if (!accepted) {
      ++stats_.samples_stale;
    }
  }
  if (!accepted) {
    options_.obs.count("net.daemon.samples_stale");
  }
  return false;
}

void PowerDaemon::handle_sample_frame(int fd, NetSession& session,
                                      core::SampleMessage sample) {
  PS_REQUIRE(!session.is_rack,
             "rack session sent a flat sample message");
  if (!session.registered) {
    bind_job_record(fd, sample.job_name);
    session.job_name = sample.job_name;
    session.registered = true;
    send_budget_resync(fd, session);
  } else {
    PS_REQUIRE(sample.job_name == session.job_name,
               "session is bound to job '" + session.job_name + "'");
  }
  JobRecord& record = jobs_.at(session.job_name);
  if (offer_sample(record, std::move(sample), Clock::now())) {
    resend_last_policy(fd, session, record);
  }
}

void PowerDaemon::handle_rack_frame(int fd, NetSession& session,
                                    const std::string& payload) {
  core::RackSampleMessage rack = core::parse_rack_sample_message(payload);
  if (!session.registered) {
    session.registered = true;
    session.is_rack = true;
    session.rack_name = rack.rack;
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.rack_sessions;
    }
    options_.obs.count("net.daemon.rack_sessions_registered");
    options_.obs.emit(completed_rounds(), obs::cat::kNetIo, "rack_register",
                      {{"rack", rack.rack}});
    send_budget_resync(fd, session);
  } else {
    PS_REQUIRE(session.is_rack, "flat session sent a rack frame");
    PS_REQUIRE(rack.rack == session.rack_name,
               "session is bound to rack '" + session.rack_name + "'");
  }

  const auto now = Clock::now();
  core::RackPolicyMessage resend;
  resend.rack = session.rack_name;
  for (core::SampleMessage& sample : rack.samples) {
    const std::string job_name = sample.job_name;
    JobRecord& record = bind_job_record(fd, job_name);
    if (offer_sample(record, std::move(sample), now)) {
      add_to_rack_reply(resend, stored_policy(job_name, record));
    }
  }
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.rack_frames_received;
  }
  options_.obs.count("net.daemon.rack_frames_received");

  if (!resend.policies.empty()) {
    // Already-answered rounds (post-crash reconnects, lost replies) get
    // one batched resend of the stored caps, mirroring the flat path's
    // per-job resend.
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.rack_policies_resent;
      stats_.policies_resent += resend.policies.size();
    }
    options_.obs.count("net.daemon.rack_policies_resent");
    sessions_.queue_frame(
        fd, session,
        encode_frame(serialize(resend, core::WireFidelity::kExact)));
  }
}

core::PolicyMessage PowerDaemon::stored_policy(
    const std::string& name, const JobRecord& record) const {
  core::PolicyMessage message;
  message.job_name = name;
  message.sequence = record.last_sequence;
  message.host_caps_watts = record.last_caps_watts;
  message.host_gpu_caps_watts = record.last_gpu_caps_watts;
  // Tag with the *current* renegotiation epoch: the stored caps are kept
  // valid under it (clamp_stored_caps runs on every revision), and an
  // untagged resend would read as epoch 0 — rejected as stale by any
  // client that has already heard a newer budget.
  message.budget_epoch = budget_epoch_;
  // The fence tag is deliberately this incarnation's own: a zombie
  // primary's resends carry its superseded fence, which is exactly what
  // lets a failed-over client refuse them.
  message.fence_epoch = fence_epoch_;
  return message;
}

void PowerDaemon::resend_last_policy(int fd, NetSession& session,
                                     JobRecord& record) {
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.policies_resent;
  }
  queue_message(fd, session, stored_policy(session.job_name, record));
}

void PowerDaemon::queue_message(int fd, NetSession& session,
                                const core::PolicyMessage& message) {
  sessions_.queue_frame(
      fd, session,
      encode_frame(serialize(message, core::WireFidelity::kExact)));
}

void PowerDaemon::try_allocate() {
  if (in_allocate_) {
    // A send from the round in flight closed a session and re-entered;
    // note it and let the outer call re-examine membership when done.
    allocate_again_ = true;
    return;
  }
  in_allocate_ = true;
  do {
    allocate_again_ = false;
    allocate_once();
  } while (allocate_again_);
  in_allocate_ = false;
}

void PowerDaemon::allocate_once() {
  if (jobs_.empty()) {
    return;
  }
  if (options_.fence_check && options_.fence_check()) {
    // Fenced: a promoted successor may exist, so computing new caps here
    // could double-grant the same watts. Stored-cap resends still answer
    // (tagged with this incarnation's now-stale fence, which failed-over
    // clients reject), but no new allocation leaves this daemon.
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.rounds_fenced;
    }
    options_.obs.count("net.daemon.rounds_fenced");
    return;
  }
  if (!launch_barrier_met_) {
    if (jobs_.size() < options_.min_jobs) {
      return;
    }
    launch_barrier_met_ = true;
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.launch_barriers;
    }
    options_.obs.emit(0, obs::cat::kDaemon, "barrier",
                      {{"jobs", static_cast<std::uint64_t>(jobs_.size())}});
  }
  for (const auto& [name, record] : jobs_) {
    if (!record.latch.has_fresh()) {
      return;  // wait until every job has reported this round
    }
  }
  // Round latency is measured from the barrier (last sample in) to the
  // last coalesced frame flushed: the daemon-side share of what a client
  // experiences as round-trip time at this level of the tree.
  const auto round_start = Clock::now();

  // jobs_ is keyed by name, so iteration order is the deterministic
  // job-name order: the allocation must not depend on fd values or
  // connection timing.
  std::vector<std::string> names;
  std::vector<core::SampleMessage> samples;
  names.reserve(jobs_.size());
  samples.reserve(jobs_.size());
  bool all_bootstrap = true;
  for (auto& [name, record] : jobs_) {
    names.push_back(name);
    samples.push_back(record.latch.consume());
    all_bootstrap = all_bootstrap && samples.back().sequence == 0;
  }

  // Adopt scheduled budget revisions due for this round. A revision
  // with at_epoch e maps to the round consuming sample sequence e + 1
  // (the in-memory loop's epoch-e RM step), so both executions see the
  // same budget at the same allocation.
  std::uint64_t round_sequence = 0;
  for (const core::SampleMessage& sample : samples) {
    round_sequence = std::max(round_sequence, sample.sequence);
  }
  while (next_scheduled_revision_ < options_.budget_revisions.size() &&
         options_.budget_revisions[next_scheduled_revision_].at_epoch <
             round_sequence) {
    core::invariants::check_epoch_monotone(
        budget_epoch_,
        options_.budget_revisions[next_scheduled_revision_].epoch,
        "daemon.scheduled_revision");
    apply_revision(options_.budget_revisions[next_scheduled_revision_]);
    ++next_scheduled_revision_;
  }

  rm::PowerAllocation caps;
  bool round_clamped = false;
  if (all_bootstrap) {
    // Launch: every job starts from the uniform share of the budget,
    // exactly as the in-memory CoordinationLoop seeds itself.
    std::size_t total_hosts = 0;
    for (const core::SampleMessage& sample : samples) {
      total_hosts += sample.host_observed_watts.size();
    }
    const double share = budget_watts_ / static_cast<double>(total_hosts);
    caps.job_host_caps.resize(samples.size());
    caps.job_host_gpu_caps.resize(samples.size());
    for (std::size_t j = 0; j < samples.size(); ++j) {
      const std::size_t hosts = samples[j].host_observed_watts.size();
      const bool gpu = samples[j].has_gpu_domain();
      const core::LaunchCaps launch = core::split_launch_share(
          share, options_.node_tdp_watts,
          gpu ? samples[j].gpu_tdp_watts : 0.0);
      caps.job_host_caps[j].assign(hosts, launch.cpu_watts);
      if (gpu) {
        caps.job_host_gpu_caps[j].assign(hosts, launch.gpu_watts);
      }
    }
    core::invariants::check_caps_fit_budget(
        caps.total_watts(), budget_watts_, caps.host_count(), "daemon.launch");
  } else {
    // The caps in force, held when the policy's output would exceed the
    // budget while they still fit it.
    core::RmStepResult step = core::rm_step(
        *policy_,
        core::context_from_samples(budget_watts_, options_.node_tdp_watts,
                                   options_.uncappable_watts, samples),
        stored_watts(), policy_->is_system_aware());
    if (step.over_budget()) {
      {
        const std::lock_guard<std::mutex> lock(shared_mutex_);
        ++stats_.budget_violations;
      }
      options_.obs.count("net.daemon.budget_violations");
      options_.obs.emit(round_sequence, obs::cat::kDaemon, "violation",
                        {{"budget_watts", budget_watts_}});
    }
    if (step.outcome == core::RmOutcome::kHeld) {
      return;  // every job stays on its stored caps; no reply this round
    }
    if (step.outcome == core::RmOutcome::kClamped) {
      round_clamped = true;
      options_.obs.count("net.daemon.emergency_clamps");
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.emergency_clamps;
    }
    caps = std::move(step.caps);
  }

  std::vector<core::PolicyMessage> messages(samples.size());
  double round_watts = 0.0;
  for (std::size_t j = 0; j < samples.size(); ++j) {
    messages[j].sequence = samples[j].sequence;
    messages[j].job_name = samples[j].job_name;
    messages[j].budget_epoch = budget_epoch_;
    messages[j].fence_epoch = fence_epoch_;
    messages[j].host_caps_watts = std::move(caps.job_host_caps[j]);
    if (j < caps.job_host_gpu_caps.size()) {
      messages[j].host_gpu_caps_watts = std::move(caps.job_host_gpu_caps[j]);
    }
    JobRecord& record = jobs_.at(names[j]);
    record.last_caps_watts = messages[j].host_caps_watts;
    record.last_gpu_caps_watts = messages[j].host_gpu_caps_watts;
    record.last_sequence = messages[j].sequence;
    record.have_policy = true;
    round_watts = plus_caps(round_watts, messages[j].host_caps_watts,
                            messages[j].host_gpu_caps_watts);
  }
  // The round's deterministic trace record, on the round-sequence clock:
  // round r here is coordination epoch r-1's RM step, and the caps carry
  // exact numeric fidelity — enough to replay the allocation watt-for-watt.
  if (options_.obs.tracing()) {
    for (std::size_t j = 0; j < messages.size(); ++j) {
      obs::TraceEvent event;
      event.tick = round_sequence;
      event.category = std::string(obs::cat::kDaemon);
      event.name = "caps";
      event.args.reserve(messages[j].host_caps_watts.size() + 2);
      event.args.push_back({"job", messages[j].job_name});
      event.args.push_back({"sequence", messages[j].sequence});
      for (std::size_t h = 0; h < messages[j].host_caps_watts.size(); ++h) {
        event.args.push_back(
            {obs::cap_key(h), messages[j].host_caps_watts[h]});
      }
      for (std::size_t h = 0; h < messages[j].host_gpu_caps_watts.size();
           ++h) {
        event.args.push_back(
            {obs::gpu_cap_key(h), messages[j].host_gpu_caps_watts[h]});
      }
      options_.obs.trace->emit(std::move(event));
    }
    options_.obs.emit(round_sequence, obs::cat::kDaemon, "round",
                      {{"round", round_sequence},
                       {"jobs", static_cast<std::uint64_t>(messages.size())},
                       {"budget_watts", budget_watts_},
                       {"budget_epoch", budget_epoch_},
                       {"allocated_watts", round_watts},
                       {"bootstrap", all_bootstrap},
                       {"emergency", round_clamped}});
  }
  options_.obs.count("net.daemon.allocations");
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    ++stats_.allocations;
  }
  // Write-ahead: persist the round before any reply can leave, so a
  // crash between send and restart rehydrates exactly the caps a client
  // may already have heard.
  maybe_write_snapshot();

  std::size_t sent = 0;
  std::size_t rack_frames = 0;
  std::size_t fanout_sessions = 0;
  {
    // Coalesce the whole round's fan-out: each session is flushed once
    // at batch close, so a round writes one frame run per peer instead
    // of one write(2) per policy.
    const SessionTable::Batch batch(sessions_);
    std::map<int, core::RackPolicyMessage> rack_replies;
    for (std::size_t j = 0; j < samples.size(); ++j) {
      const auto it = jobs_.find(names[j]);
      if (it == jobs_.end() || it->second.session_fd < 0) {
        continue;  // in grace: caps are stored, resent on reconnect
      }
      const int fd = it->second.session_fd;
      NetSession* session = sessions_.find(fd);
      if (session == nullptr) {
        continue;
      }
      if (session->is_rack) {
        // One batched rack-policy frame per aggregator, not one frame
        // per job: the rack budget it carries is the sum of its jobs'
        // caps, i.e. the rack's renegotiated share for this epoch.
        core::RackPolicyMessage& reply = rack_replies[fd];
        reply.rack = session->rack_name;
        add_to_rack_reply(reply, messages[j]);
      } else {
        queue_message(fd, *session, messages[j]);
        ++fanout_sessions;
      }
      ++sent;
    }
    for (auto& [fd, reply] : rack_replies) {
      NetSession* session = sessions_.find(fd);
      if (session == nullptr) {
        continue;  // closed while queueing its peers' frames
      }
      sessions_.queue_frame(
          fd, *session,
          encode_frame(serialize(reply, core::WireFidelity::kExact)));
      ++rack_frames;
      ++fanout_sessions;
    }
  }
  if (round_latency_ != nullptr) {
    round_latency_->observe(
        std::chrono::duration<double>(Clock::now() - round_start).count());
  }
  options_.obs.set_gauge("net.daemon.fanout",
                         static_cast<double>(fanout_sessions));
  options_.obs.set_gauge("net.daemon.racks",
                         static_cast<double>(rack_frames));
  const std::lock_guard<std::mutex> lock(shared_mutex_);
  stats_.policies_sent += sent;
  stats_.rack_policies_sent += rack_frames;
}

void PowerDaemon::maybe_write_snapshot() {
  if (options_.snapshot_path.empty() && !options_.replication_sink) {
    return;
  }
  DaemonSnapshot snapshot;
  snapshot.system_budget_watts = budget_watts_;
  snapshot.budget_epoch = budget_epoch_;
  snapshot.fence_epoch = fence_epoch_;
  snapshot.launch_barrier_met = launch_barrier_met_;
  {
    const std::lock_guard<std::mutex> lock(shared_mutex_);
    snapshot.allocations = allocation_epoch_base_ + stats_.allocations;
  }
  for (const auto& [name, record] : jobs_) {
    if (!record.have_policy) {
      continue;
    }
    SnapshotJob job;
    job.name = name;
    job.sequence = record.last_sequence;
    job.caps_watts = record.last_caps_watts;
    job.gpu_caps_watts = record.last_gpu_caps_watts;
    snapshot.jobs.push_back(std::move(job));
  }
  if (!options_.snapshot_path.empty()) {
    try {
      save_snapshot(options_.snapshot_path, snapshot);
      {
        const std::lock_guard<std::mutex> lock(shared_mutex_);
        ++stats_.snapshots_written;
      }
      options_.obs.count("net.daemon.snapshots_written");
      options_.obs.emit(
          snapshot.allocations, obs::cat::kDaemon, "snapshot",
          {{"jobs", static_cast<std::uint64_t>(snapshot.jobs.size())},
           {"budget_epoch", budget_epoch_}});
    } catch (const Error&) {
      // Disk trouble must degrade durability, never live coordination.
    }
  }
  if (options_.replication_sink) {
    // Same write-ahead point as the disk snapshot: the standby always
    // holds at least the state any client may already have heard.
    options_.replication_sink(snapshot);
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.replication_updates;
    }
    options_.obs.count("net.daemon.replication_updates");
  }
}

void PowerDaemon::on_tick() {
  adopt_pending_transports();
  apply_pending_revisions();
  const auto now = Clock::now();
  prune_quarantine(now);

  for (const int fd : sessions_.idle_fds(now, options_.idle_timeout)) {
    {
      const std::lock_guard<std::mutex> lock(shared_mutex_);
      ++stats_.sessions_timed_out;
    }
    close_session(fd, /*protocol_error=*/false);
  }

  std::vector<std::string> evictions;
  for (const auto& [name, record] : jobs_) {
    if (record.session_fd < 0 &&
        now - record.disconnected_at > options_.reclaim_timeout) {
      evictions.push_back(name);  // grace expired: reclaim the watts
    }
  }
  bool round_waiting = false;
  for (const auto& [name, record] : jobs_) {
    if (record.latch.has_fresh()) {
      round_waiting = true;
      break;
    }
  }
  if (round_waiting) {
    // A half-open peer (connected, never heard from again) only matters
    // when it is holding a round hostage; an idle-but-healthy mix
    // between epochs is not a liveness failure.
    for (const auto& [name, record] : jobs_) {
      if (record.session_fd >= 0 && !record.latch.has_fresh() &&
          record.last_sample_at != Clock::time_point{} &&
          now - record.last_sample_at > options_.heartbeat_timeout) {
        evictions.push_back(name);
      }
    }
  }
  for (const std::string& name : evictions) {
    evict_job(name);
  }
  try_allocate();
}

}  // namespace ps::net
