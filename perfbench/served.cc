/**
 * @file
 * The served workload: two runs (seeded seed and seed+1) hosted by one
 * in-process EpollServer on loopback, each fed by an open-loop sender
 * thread over two connections. The server loop runs on the calling
 * thread, so the process uses three threads.
 *
 * The sender speaks the public frame codec (net/frame.hh) directly.
 * Every event has a due time on a fixed schedule (seq / rate); the
 * sender sends whatever is due, however late, and times each Ack from
 * the event's due time, so a stall also delays the events queued
 * behind it. Busy frames are honoured: the refused event is resent
 * after a back-off and keeps its original due time.
 *
 * A pass serves the same trace at each rate of a fixed ladder. A rate
 * is sustained when ack p99 meets the workload's limit and the backlog
 * (events due but not yet Acked) does not grow over the send window.
 */

#include "perfbench.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cerrno>
#include <cstring>
#include <memory>
#include <set>
#include <thread>

#include "net/frame.hh"
#include "net/server.hh"
#include "net/service_plane.hh"
#include "obs/obs.hh"
#include "online/driver.hh"
#include "util/error.hh"

namespace perfbench {

using namespace cooper;
using namespace cooper::net;

namespace {

/** Frames encoded per connection per loop turn, at most. */
constexpr std::size_t kSendBatch = 256;

/** Stop encoding ahead once this much waits on one socket. */
constexpr std::size_t kSendHighWater = 1u << 20;

/** A sender that hears nothing this long gives the run up. */
constexpr int kIdleGuardMs = 30 * 1000;

/** A sender still busy this long after its start gives the run up,
 *  which bounds a run even if flow control collapses. */
constexpr double kRunDeadlineS = 30.0;

/** Backlog sampling period. */
constexpr double kSampleEveryS = 1e-3;

/** Ladder passes per untraced run, at least. */
constexpr std::size_t kMinPasses = 3;

/** Passes at the reference rate per untraced run, at least: the
 *  median of nine is not moved by four stalled passes. */
constexpr std::size_t kMinReferencePasses = 9;

/** Back-off after a Busy frame, doubling while refusals continue. */
constexpr double kBusyBackoffMs = 1.0;
constexpr double kBusyBackoffMaxMs = 100.0;

/** CPU time the calling thread has used, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** What one run's sender measured. */
struct SenderResult
{
    std::vector<double> ackMs;   //!< Ack time - due time, per event
    std::vector<double> lagMs;   //!< first send - due time, per event
    std::vector<double> epochMs; //!< EpochComplete - due of its trigger
    std::vector<std::pair<double, double>> backlog; //!< (s, due - Acked)
    std::uint64_t events = 0;
    std::uint64_t acked = 0;
    double lastAckS = 0.0; //!< from the start of the schedule
    std::vector<std::string> summaries; //!< one per connection
    std::string error;
};

/**
 * One run's open-loop sender: the run's events, seq-ordered, spread
 * round-robin over its connections (seq i on connection i % C).
 */
class OpenLoopSender
{
  public:
    OpenLoopSender(const ChurnTrace &trace, std::uint64_t runId,
                   std::size_t connections, double rate,
                   std::uint16_t port)
        : trace_(&trace), runId_(runId), rate_(rate), port_(port),
          conns_(connections)
    {
        const auto &events = trace.events();
        for (std::size_t i = 0; i < events.size(); ++i) {
            ticks_.push_back(events[i].tick);
            conns_[i % connections].seqs.push_back(i);
        }
        result_.events = events.size();
        result_.ackMs.reserve(events.size());
        result_.lagMs.reserve(events.size());
    }

    ~OpenLoopSender()
    {
        for (Conn &c : conns_)
            if (c.fd >= 0)
                ::close(c.fd);
    }

    OpenLoopSender(const OpenLoopSender &) = delete;
    OpenLoopSender &operator=(const OpenLoopSender &) = delete;

    /** Connect and handshake every connection (blocking). */
    bool open();

    /** Send on schedule from `start` until every connection saw Bye. */
    void run(Clock::time_point start);

    /** Close every connection (a failed sibling ends the run). */
    void
    closeAll()
    {
        for (Conn &c : conns_)
            if (c.fd >= 0) {
                ::close(c.fd);
                c.fd = -1;
            }
    }

    SenderResult &result() { return result_; }

  private:
    struct Conn
    {
        int fd = -1;
        std::vector<std::uint64_t> seqs; //!< global seqs, ascending
        std::size_t next = 0;            //!< next seqs[] to send
        std::vector<std::uint8_t> rbuf;
        std::vector<std::uint8_t> wbuf;
        std::size_t wpos = 0;
        std::set<std::uint64_t> retry; //!< Busy-refused seqs, ascending
        Clock::time_point retryAt{};
        double backoffMs = 0.0;
        std::size_t acks = 0;
        bool finishedQueued = false;
        bool bye = false;
        std::string summary;
    };

    bool
    fail(std::string why)
    {
        if (result_.error.empty())
            result_.error = std::move(why);
        return false;
    }

    Clock::time_point
    due(std::uint64_t seq) const
    {
        return start_ + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(seq) / rate_));
    }

    void encodeEvent(Conn &c, std::uint64_t seq);
    void queueDue(Conn &c, Clock::time_point now);
    bool flush(Conn &c);
    bool readFrames(Conn &c);
    bool handle(Conn &c, const FrameView &frame, Clock::time_point now);
    int timeoutMs(Clock::time_point now) const;

    const ChurnTrace *trace_;
    std::uint64_t runId_;
    double rate_; //!< this run's events per second
    std::uint16_t port_;
    std::vector<Conn> conns_;
    std::vector<Tick> ticks_;

    Clock::time_point start_{};
    std::vector<bool> epochSeen_;
    SenderResult result_;
};

bool
OpenLoopSender::open()
{
    for (std::size_t id = 0; id < conns_.size(); ++id) {
        Conn &c = conns_[id];
        c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (c.fd < 0)
            return fail(std::string("socket: ") + std::strerror(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port_);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(c.fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            return fail(std::string("connect: ") + std::strerror(errno));
        int one = 1;
        ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        HelloMsg hello;
        hello.clientId = static_cast<std::uint32_t>(id);
        hello.runId = runId_;
        std::vector<std::uint8_t> payload;
        hello.encode(payload);
        encodeFrame(c.wbuf, MsgType::Hello, 0, payload.data(),
                    payload.size());
        while (c.wpos < c.wbuf.size()) {
            const ssize_t w = ::write(c.fd, c.wbuf.data() + c.wpos,
                                      c.wbuf.size() - c.wpos);
            if (w < 0 && errno == EINTR)
                continue;
            if (w < 0)
                return fail(std::string("Hello write: ") +
                            std::strerror(errno));
            c.wpos += static_cast<std::size_t>(w);
        }
        c.wbuf.clear();
        c.wpos = 0;

        // Block until the HelloAck lands.
        while (true) {
            FrameView view;
            std::size_t consumed = 0;
            std::string error;
            const DecodeStatus status = tryDecodeFrame(
                c.rbuf.data(), c.rbuf.size(), view, consumed, error);
            if (status == DecodeStatus::Bad)
                return fail("handshake: " + error);
            if (status == DecodeStatus::Ok) {
                if (view.type != MsgType::HelloAck)
                    return fail(std::string("expected HelloAck, got ") +
                                msgTypeName(view.type));
                HelloAckMsg::decode(view);
                c.rbuf.erase(c.rbuf.begin(),
                             c.rbuf.begin() +
                                 static_cast<std::ptrdiff_t>(consumed));
                break;
            }
            pollfd pfd{c.fd, POLLIN, 0};
            if (::poll(&pfd, 1, kIdleGuardMs) == 0)
                return fail("timed out waiting for HelloAck");
            std::uint8_t chunk[4096];
            const ssize_t r = ::read(c.fd, chunk, sizeof(chunk));
            if (r == 0)
                return fail("server closed during the handshake");
            if (r < 0) {
                if (errno == EINTR || errno == EAGAIN)
                    continue;
                return fail(std::string("read: ") + std::strerror(errno));
            }
            c.rbuf.insert(c.rbuf.end(), chunk,
                          chunk + static_cast<std::size_t>(r));
        }
        const int fl = ::fcntl(c.fd, F_GETFL, 0);
        if (fl < 0 || ::fcntl(c.fd, F_SETFL, fl | O_NONBLOCK) < 0)
            return fail(std::string("fcntl: ") + std::strerror(errno));
    }
    return true;
}

void
OpenLoopSender::encodeEvent(Conn &c, std::uint64_t seq)
{
    const ChurnEvent &event = trace_->events()[seq];
    EventMsg msg;
    msg.seq = seq;
    msg.tick = event.tick;
    msg.kind = event.kind == EventKind::Arrival ? 0 : 1;
    msg.uid = event.uid;
    msg.type = event.type;
    std::vector<std::uint8_t> payload;
    msg.encode(payload);
    encodeFrame(c.wbuf, MsgType::Event, 0, payload.data(), payload.size());
}

void
OpenLoopSender::queueDue(Conn &c, Clock::time_point now)
{
    std::size_t batch = 0;
    if (!c.retry.empty()) {
        // Refused events go first, lowest seq first (the server always
        // takes the frontier event), once the back-off has expired; new
        // sends on this connection wait, as its parked backlog is full.
        if (now < c.retryAt)
            return;
        while (!c.retry.empty() && batch < kSendBatch) {
            encodeEvent(c, *c.retry.begin());
            c.retry.erase(c.retry.begin());
            ++batch;
        }
        return;
    }
    while (c.next < c.seqs.size() && batch < kSendBatch &&
           c.wbuf.size() - c.wpos < kSendHighWater) {
        const std::uint64_t seq = c.seqs[c.next];
        const Clock::time_point when = due(seq);
        if (when > now)
            break;
        encodeEvent(c, seq);
        result_.lagMs.push_back(millis(when, now));
        ++c.next;
        ++batch;
    }
    if (c.next == c.seqs.size() && c.acks == c.seqs.size() &&
        !c.finishedQueued) {
        // Declared only once every event is Acked, so no late Busy
        // refusal can strand an event behind the declaration.
        FinishedMsg done;
        done.eventsSent = c.seqs.size();
        std::vector<std::uint8_t> payload;
        done.encode(payload);
        encodeFrame(c.wbuf, MsgType::Finished, 0, payload.data(),
                    payload.size());
        c.finishedQueued = true;
    }
}

bool
OpenLoopSender::flush(Conn &c)
{
    while (c.wpos < c.wbuf.size()) {
        const ssize_t w =
            ::write(c.fd, c.wbuf.data() + c.wpos, c.wbuf.size() - c.wpos);
        if (w > 0) {
            c.wpos += static_cast<std::size_t>(w);
            continue;
        }
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;
        if (w < 0 && errno == EINTR)
            continue;
        return fail(std::string("write: ") + std::strerror(errno));
    }
    c.wbuf.clear();
    c.wpos = 0;
    return true;
}

bool
OpenLoopSender::handle(Conn &c, const FrameView &frame,
                       Clock::time_point now)
{
    const std::size_t n = conns_.size();
    const auto ours = [&](std::uint64_t seq) {
        return seq < ticks_.size() &&
               &conns_[seq % n] == &c;
    };
    switch (frame.type) {
    case MsgType::Ack: {
        const AckMsg ack = AckMsg::decode(frame);
        if (!ours(ack.seq))
            return fail("Ack for a foreign seq");
        result_.ackMs.push_back(millis(due(ack.seq), now));
        result_.lastAckS = seconds(start_, now);
        ++result_.acked;
        ++c.acks;
        c.backoffMs = 0.0;
        return true;
    }
    case MsgType::Busy: {
        const BusyMsg busy = BusyMsg::decode(frame);
        if (!ours(busy.seq))
            return fail("Busy for a foreign seq");
        c.retry.insert(busy.seq);
        c.backoffMs =
            c.backoffMs <= 0.0
                ? std::max(kBusyBackoffMs,
                           static_cast<double>(busy.retryAfterMs))
                : std::min(c.backoffMs * 2.0, kBusyBackoffMaxMs);
        c.retryAt = now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  c.backoffMs));
        return true;
    }
    case MsgType::EpochComplete: {
        // Decision latency at the boundary: from the due time of the
        // first event at or past the boundary tick (the event whose
        // delivery lets the epoch commit) to the commit's notice.
        const EpochCompleteMsg epoch = EpochCompleteMsg::decode(frame);
        if (epoch.epoch >= epochSeen_.size())
            epochSeen_.resize(epoch.epoch + 1, false);
        if (epochSeen_[epoch.epoch])
            return true;
        epochSeen_[epoch.epoch] = true;
        const auto it =
            std::lower_bound(ticks_.begin(), ticks_.end(), epoch.tick);
        if (it != ticks_.end())
            result_.epochMs.push_back(millis(
                due(static_cast<std::uint64_t>(it - ticks_.begin())),
                now));
        return true;
    }
    case MsgType::ProbeResult:
    case MsgType::Assignment:
    case MsgType::CheckpointAck:
        return true;
    case MsgType::Summary:
        c.summary.append(reinterpret_cast<const char *>(frame.payload),
                         frame.size);
        return true;
    case MsgType::Bye:
        c.bye = true;
        return true;
    case MsgType::Error:
        return fail("server error: " + ErrorMsg::decode(frame).message);
    default:
        return fail(std::string("unexpected ") + msgTypeName(frame.type));
    }
}

bool
OpenLoopSender::readFrames(Conn &c)
{
    std::uint8_t chunk[64 * 1024];
    bool eof = false;
    while (true) {
        const ssize_t r = ::read(c.fd, chunk, sizeof(chunk));
        if (r > 0) {
            c.rbuf.insert(c.rbuf.end(), chunk,
                          chunk + static_cast<std::size_t>(r));
            continue;
        }
        if (r == 0) {
            eof = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        return fail(std::string("read: ") + std::strerror(errno));
    }
    const Clock::time_point now = Clock::now();
    std::size_t offset = 0;
    while (!c.bye) {
        FrameView view;
        std::size_t consumed = 0;
        std::string error;
        const DecodeStatus status =
            tryDecodeFrame(c.rbuf.data() + offset, c.rbuf.size() - offset,
                           view, consumed, error);
        if (status == DecodeStatus::NeedMore)
            break;
        if (status == DecodeStatus::Bad)
            return fail("frame decode: " + error);
        offset += consumed;
        try {
            if (!handle(c, view, now))
                return false;
        } catch (const FatalError &err) {
            return fail(err.what());
        }
    }
    c.rbuf.erase(c.rbuf.begin(),
                 c.rbuf.begin() + static_cast<std::ptrdiff_t>(offset));
    if (eof && !c.bye)
        return fail("server closed before Bye");
    return true;
}

int
OpenLoopSender::timeoutMs(Clock::time_point now) const
{
    Clock::time_point wake = Clock::time_point::max();
    for (const Conn &c : conns_) {
        if (c.wbuf.size() - c.wpos >= kSendHighWater)
            continue;
        if (!c.retry.empty())
            wake = std::min(wake, c.retryAt);
        else if (c.next < c.seqs.size())
            wake = std::min(wake, due(c.seqs[c.next]));
    }
    if (wake == Clock::time_point::max())
        return kIdleGuardMs;
    if (wake <= now)
        return 0;
    // Sleep to the millisecond before the deadline, then spin-poll the
    // rest, so events go out on time rather than up to 1 ms late.
    const double ms = millis(now, wake);
    return ms > 1.0 ? static_cast<int>(ms) - 1 : 0;
}

void
OpenLoopSender::run(Clock::time_point start)
{
    start_ = start;
    Clock::time_point lastSample{};
    auto lastProgress = Clock::now();
    std::uint64_t lastAcked = 0;
    while (true) {
        const bool done = std::all_of(conns_.begin(), conns_.end(),
                                      [](const Conn &c) { return c.bye; });
        if (done)
            break;
        const Clock::time_point now = Clock::now();
        for (Conn &c : conns_) {
            if (c.bye)
                continue;
            queueDue(c, now);
            if (!flush(c))
                return;
        }
        if (seconds(lastSample, now) >= kSampleEveryS) {
            // Due, not sent: an open-loop queue includes the events a
            // blocked sender has not got onto the wire yet.
            const double dueSoFar = std::min(
                static_cast<double>(ticks_.size()),
                std::floor(seconds(start_, now) * rate_) + 1.0);
            result_.backlog.emplace_back(
                seconds(start_, now),
                std::max(0.0,
                         dueSoFar - static_cast<double>(result_.acked)));
            lastSample = now;
        }
        if (result_.acked != lastAcked) {
            lastAcked = result_.acked;
            lastProgress = now;
        } else if (millis(lastProgress, now) > kIdleGuardMs) {
            fail("no Ack for 30 s");
            return;
        }
        if (seconds(start_, now) > kRunDeadlineS) {
            fail("run not served within 30 s");
            return;
        }

        std::vector<pollfd> fds;
        for (const Conn &c : conns_) {
            if (c.bye)
                continue;
            short events = POLLIN;
            if (c.wpos < c.wbuf.size())
                events |= POLLOUT;
            fds.push_back(pollfd{c.fd, events, 0});
        }
        const int pr = ::poll(fds.data(), fds.size(), timeoutMs(now));
        if (pr < 0 && errno != EINTR) {
            fail(std::string("poll: ") + std::strerror(errno));
            return;
        }
        if (pr <= 0)
            continue;
        for (const pollfd &p : fds) {
            if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            for (Conn &c : conns_)
                if (c.fd == p.fd && !readFrames(c))
                    return;
        }
    }
    for (Conn &c : conns_)
        result_.summaries.push_back(c.summary);
}

/** What one ladder rate produced for both runs. */
struct RateResult
{
    double setupS = 0.0;
    double serverCpuS = 0.0; //!< the server loop's thread CPU time
    double ackP50Ms = 0.0;
    double ackP95Ms = 0.0;
    double ackP99Ms = 0.0;
    double epochP50Ms = 0.0;
    double epochP95Ms = 0.0;
    double lagP99Ms = 0.0;
    double backlogMax = 0.0;
    bool backlogGrew = false;
    double achievedEps = 0.0; //!< events Acked / schedule-to-last-Ack
};

/** Mean backlog over samples with t in [from, to). */
double
meanBacklog(const std::vector<std::pair<double, double>> &samples,
            double from, double to)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &[t, b] : samples)
        if (t >= from && t < to) {
            sum += b;
            ++n;
        }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/**
 * Serve the trace to every run at aggregate `rate` on a fresh set-up,
 * gate every run's summary on its reference, and count the events
 * that were never Acked.
 */
RateResult
serveAt(const Workload &workload, const ChurnTrace &trace,
        std::uint64_t seed, double rate,
        const std::vector<Reference> &refs, Tally &tally)
{
    const std::size_t runs = workload.runs;
    const double runRate = rate / static_cast<double>(runs);

    const auto setupBegin = Clock::now();
    const Env env;
    std::vector<std::unique_ptr<OnlineDriver>> drivers;
    std::vector<std::unique_ptr<ServicePlane>> planes;
    for (std::size_t r = 0; r < runs; ++r) {
        drivers.push_back(std::make_unique<OnlineDriver>(
            env.catalog, env.model, workload.config, seed + r));
        planes.push_back(
            std::make_unique<ServicePlane>(env.catalog, *drivers.back()));
    }
    EpollServer server{net::ServerConfig{}};
    for (std::size_t r = 0; r < runs; ++r)
        server.addRun(r, *planes[r]);

    std::vector<std::unique_ptr<OpenLoopSender>> senders;
    for (std::size_t r = 0; r < runs; ++r)
        senders.push_back(std::make_unique<OpenLoopSender>(
            trace, r, workload.connectionsPerRun, runRate, server.port()));

    // Handshakes finish set-up; the schedule starts at that instant.
    Clock::time_point start{};
    std::barrier gate(static_cast<std::ptrdiff_t>(runs),
                      [&]() noexcept { start = Clock::now(); });
    std::vector<char> opened(runs, 0);
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < runs; ++r)
        threads.emplace_back([&, r] {
            opened[r] = senders[r]->open() ? 1 : 0;
            gate.arrive_and_wait();
            if (std::count(opened.begin(), opened.end(), 1) ==
                static_cast<std::ptrdiff_t>(runs))
                senders[r]->run(start);
            senders[r]->closeAll();
        });
    const double cpuBegin = threadCpuSeconds();
    const bool served = server.runUntilServed();
    RateResult out;
    out.serverCpuS = threadCpuSeconds() - cpuBegin;
    for (std::thread &t : threads)
        t.join();
    out.setupS = seconds(setupBegin, start);

    std::vector<double> acks;
    std::vector<double> epochs;
    std::vector<double> lags;
    double acked = 0.0;
    double lastAck = 0.0;
    for (std::size_t r = 0; r < runs; ++r) {
        const SenderResult &res = senders[r]->result();
        const std::string label = "served run " + std::to_string(r);
        tally.check(server.runServed(r),
                    label + " aborted: " + server.runError(r));
        tally.check(res.error.empty(), label + ": " + res.error);
        bool same = res.summaries.size() == workload.connectionsPerRun;
        for (const std::string &s : res.summaries)
            same = same && s == refs[r].summary;
        tally.check(same, label +
                              " summary differs from the in-process "
                              "replay at seed+" +
                              std::to_string(r));
        tally.count(res.events, res.events - res.acked,
                    label + ": event(s) never Acked");

        acks.insert(acks.end(), res.ackMs.begin(), res.ackMs.end());
        epochs.insert(epochs.end(), res.epochMs.begin(), res.epochMs.end());
        lags.insert(lags.end(), res.lagMs.begin(), res.lagMs.end());
        for (const auto &[t, b] : res.backlog)
            out.backlogMax = std::max(out.backlogMax, b);
        // Growth over the send window: the last quarter's mean backlog
        // against the second quarter's.
        const double window = static_cast<double>(res.events) / runRate;
        const double early =
            meanBacklog(res.backlog, 0.25 * window, 0.5 * window);
        const double late =
            meanBacklog(res.backlog, 0.75 * window, window);
        // Slack of 5 ms of sends, so one short stall late in the
        // window does not read as growth.
        out.backlogGrew =
            out.backlogGrew || late > 2.0 * early + 0.005 * runRate;
        acked += static_cast<double>(res.acked);
        lastAck = std::max(lastAck, res.lastAckS);
    }
    if (!served)
        tally.check(false, "server: " + server.lastError());
    out.ackP50Ms = percentile(acks, 50.0);
    out.ackP95Ms = percentile(acks, 95.0);
    out.ackP99Ms = percentile(acks, 99.0);
    out.epochP50Ms = percentile(epochs, 50.0);
    out.epochP95Ms = percentile(epochs, 95.0);
    out.lagP99Ms = percentile(lags, 99.0);
    out.achievedEps = lastAck > 0.0 ? acked / lastAck : 0.0;
    return out;
}

/** Median over passes of one per-pass number. */
double
overPasses(const std::vector<RateResult> &passes,
           double RateResult::*field)
{
    std::vector<double> values;
    for (const RateResult &r : passes)
        values.push_back(r.*field);
    return median(values);
}

} // namespace

Metrics
runServed(const Workload &workload, const RunOptions &options,
          Tally &tally)
{
    const Env env;
    const std::vector<ChurnTrace> traces =
        makeTraces(env.catalog, workload, options.seed);
    // refs[k][r]: trace k replayed in process at seed + r.
    std::vector<std::vector<Reference>> refs(traces.size());
    Quality quality;
    const double share =
        1.0 / static_cast<double>(traces.size() * workload.runs);
    for (std::size_t k = 0; k < traces.size(); ++k)
        for (std::size_t r = 0; r < workload.runs; ++r) {
            refs[k].push_back(referenceReplay(env, workload,
                                              options.seed + r, traces[k]));
            const Quality &q = refs[k].back().quality;
            quality.meanPenalty += share * q.meanPenalty;
            quality.blockingAfter += share * q.blockingAfter;
            quality.migrationsPerEpoch += share * q.migrationsPerEpoch;
            quality.tableBytes = std::max(quality.tableBytes, q.tableBytes);
        }
    const double referenceRate = workload.ladder[workload.referenceIndex];

    // Warm-up: sockets, allocator and caches settle before anything is
    // timed. Its output is gated like every other run.
    serveAt(workload, traces.front(), options.seed, workload.ladder.back(),
            refs.front(), tally);

    const auto window = Clock::now();
    const auto elapsed = [&] { return seconds(window, Clock::now()); };

    if (options.trace) {
        // Pairs at the reference rate, untraced then traced. The send
        // schedule fixes the wall time of a paced run, so tracing
        // overhead is the server loop's CPU time, traced / untraced.
        std::vector<Metrics> perPair;
        std::size_t pass = 0;
        do {
            const std::size_t k = pass++ % traces.size();
            const RateResult plain = serveAt(workload, traces[k],
                                             options.seed, referenceRate,
                                             refs[k], tally);
            ObsConfig obs;
            obs.metrics = true;
            obs.tracing = true;
            const ObsScope scope(obs);
            const RateResult traced = serveAt(workload, traces[k],
                                              options.seed, referenceRate,
                                              refs[k], tally);
            LayerInputs in;
            in.layers = reduceSpans(scope.session()->tracer()->events());
            in.snapshot = scope.session()->metrics()->snapshot();
            in.quality = quality;
            in.lagP99Ms = plain.lagP99Ms;
            in.backlogMax = plain.backlogMax;
            in.obsOverhead = plain.serverCpuS > 0.0
                                 ? traced.serverCpuS / plain.serverCpuS
                                 : 0.0;
            perPair.push_back(layerMetrics(in));
        } while (elapsed() < options.seconds);
        return medianMetrics(perPair);
    }

    // Whole passes over the ladder until the window is spent, at least
    // kMinPasses, then extra passes at the reference rate up to
    // kMinReferencePasses; pass p serves trace p mod K. Each number is
    // taken per pass and the median over passes is reported, so a few
    // stalled passes cannot set a run's tail.
    std::vector<std::vector<RateResult>> byRate(workload.ladder.size());
    std::size_t pass = 0;
    while (pass < kMinPasses || elapsed() < options.seconds) {
        const std::size_t k = pass++ % traces.size();
        for (std::size_t i = 0; i < workload.ladder.size(); ++i)
            byRate[i].push_back(serveAt(workload, traces[k], options.seed,
                                        workload.ladder[i], refs[k],
                                        tally));
    }
    std::vector<RateResult> &atReference = byRate[workload.referenceIndex];
    while (atReference.size() < kMinReferencePasses) {
        const std::size_t k = pass++ % traces.size();
        atReference.push_back(serveAt(workload, traces[k], options.seed,
                                      referenceRate, refs[k], tally));
    }

    std::vector<double> setups;
    double sustained = 0.0;
    for (std::size_t i = 0; i < workload.ladder.size(); ++i) {
        const std::vector<RateResult> &passes = byRate[i];
        std::size_t grew = 0;
        for (const RateResult &r : passes) {
            setups.push_back(r.setupS);
            grew += r.backlogGrew ? 1 : 0;
        }
        const double p99 = overPasses(passes, &RateResult::ackP99Ms);
        const double eps = overPasses(passes, &RateResult::achievedEps);
        const bool holds =
            p99 <= workload.ackLimitMs && 2 * grew <= passes.size();
        if (holds)
            sustained = eps;
        std::printf("  rate %9.0f/s: ack p50 %.3f ms, p99 %.3f ms, "
                    "achieved %.0f/s, backlog grew in %zu of %zu "
                    "passes, %s\n",
                    workload.ladder[i],
                    overPasses(passes, &RateResult::ackP50Ms), p99, eps,
                    grew, passes.size(),
                    holds ? "sustained" : "not sustained");
    }

    const std::vector<RateResult> &ref = byRate[workload.referenceIndex];
    if (sustained == 0.0)
        sustained = overPasses(ref, &RateResult::achievedEps);
    return {
        {"events_per_s", overPasses(ref, &RateResult::achievedEps), "1/s"},
        {"epoch_p50_ms", overPasses(ref, &RateResult::epochP50Ms), "ms"},
        {"epoch_p95_ms", overPasses(ref, &RateResult::epochP95Ms), "ms"},
        {"ack_p50_ms", overPasses(ref, &RateResult::ackP50Ms), "ms"},
        {"ack_p95_ms", overPasses(ref, &RateResult::ackP95Ms), "ms"},
        {"sustained_eps", sustained, "1/s"},
        {"mean_penalty", quality.meanPenalty, "penalty"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", median(setups), "s"},
    };
}

} // namespace perfbench
