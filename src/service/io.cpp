#include "service/io.h"

#include <atomic>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "service/pool.h"

namespace rcfg::service {

namespace {

/// Engine or EnginePool behind one submit surface. The pool is engaged only
/// when asked for (engines > 1 or admission control), so the single-engine
/// path keeps its flat `stats` body and zero extra indirection.
struct Backend {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<EnginePool> pool;

  explicit Backend(const ServiceOptions& options) {
    if (options.engines > 1 || options.max_sessions != 0) {
      PoolOptions popts;
      popts.engine = options.engine;
      popts.engines = options.engines == 0 ? 1 : options.engines;
      popts.max_sessions = options.max_sessions;
      pool = std::make_unique<EnginePool>(std::move(popts));
    } else {
      engine = std::make_unique<Engine>(options.engine);
    }
  }

  void submit(Request req, Engine::Callback callback) {
    if (engine != nullptr) {
      engine->submit(std::move(req), std::move(callback));
    } else {
      pool->submit(std::move(req), std::move(callback));
    }
  }
  void drain() { engine != nullptr ? engine->drain() : pool->drain(); }
  void pause() { engine != nullptr ? engine->pause() : pool->pause(); }
  void resume() { engine != nullptr ? engine->resume() : pool->resume(); }
  /// Protocol-level errors are attributed to engine 0 when pooled.
  ServiceMetrics& metrics() {
    return engine != nullptr ? engine->metrics() : pool->engine(0).metrics();
  }
};

}  // namespace

void run_service(std::istream& in, std::ostream& out, const ServiceOptions& options) {
  Backend backend(options);

  // Everything `emit` touches must outlive the DrainGuard below, so that an
  // exception unwinding this frame drains the backend (flushing worker
  // callbacks through emit) while the mutex and streams are still alive.
  std::atomic<std::uint64_t> sink_errors{0};
  std::mutex out_mu;
  bool binary_out = false;    // set once, before any request is submitted
  bool wrote_magic = false;   // guarded by out_mu
  // The request has already been applied by the time emit runs; a response
  // we cannot deliver must not take the serving loop (or a worker thread)
  // down with it. Two failure shapes: a streambuf exception that escapes
  // the stream (caller opted into exceptions()), and the default-mode
  // version where operator<< swallows it and just sets badbit. Both are
  // counted, and the stream is cleared so one failed write doesn't turn
  // every later response into a silent no-op on a wedged stream.
  const auto emit = [&](const Response& r) noexcept {
    try {
      const std::lock_guard<std::mutex> lock(out_mu);
      try {
        if (binary_out) {
          if (!wrote_magic) {
            write_magic(out);
            wrote_magic = true;
          }
          std::string payload;
          encode_value(response_value(r), payload);
          write_frame(out, payload);
          out.flush();
        } else {
          out << serialize_response(r) << std::endl;  // flush per line: pipes
        }
        if (!out) {
          sink_errors.fetch_add(1, std::memory_order_relaxed);
          out.clear();
        }
      } catch (...) {
        sink_errors.fetch_add(1, std::memory_order_relaxed);
        try {
          out.clear();
        } catch (...) {
        }
      }
    } catch (...) {
      // Lock acquisition itself failed; nothing left to do safely.
      sink_errors.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Declared after emit/out_mu so it is destroyed FIRST: whatever unwinds
  // this frame, the backend quiesces before emit's captures die. Without
  // this, ~Engine's implicit drain would run worker callbacks against an
  // already-destroyed mutex.
  struct DrainGuard {
    Backend& backend;
    ~DrainGuard() {
      try {
        backend.drain();
      } catch (...) {
      }
    }
  } guard{backend};

  Framing framing = options.framing;
  if (framing == Framing::kAuto) {
    const int first = in.peek();
    if (first == std::char_traits<char>::eof()) return;
    framing = static_cast<unsigned char>(first) == kFramingMagic[0] ? Framing::kBinary
                                                                    : Framing::kJsonl;
  }
  binary_out = framing == Framing::kBinary;

  if (framing == Framing::kBinary) {
    try {
      read_magic(in);
    } catch (const FramingError& e) {
      backend.metrics().errors_total.inc();
      emit(error_response(0, std::string("framing: ") + e.what()));
      return;
    }
    std::string payload;
    for (;;) {
      bool got = false;
      try {
        got = read_frame(in, payload);
      } catch (const FramingError& e) {
        // Truncated header/payload: the stream offset is lost, end the
        // connection (after answering so the client sees why).
        backend.metrics().errors_total.inc();
        emit(error_response(0, std::string("framing: ") + e.what()));
        break;
      }
      if (!got) break;
      json::Value doc;
      Request req;
      try {
        doc = decode_value(payload);
        req = parse_request_doc(doc);
      } catch (const FramingError& e) {
        // The frame boundary held; only the value inside was malformed, so
        // the next frame is still addressable — answer and keep serving.
        backend.metrics().errors_total.inc();
        emit(error_response(0, std::string("framing: ") + e.what()));
        continue;
      } catch (const ProtocolError& e) {
        backend.metrics().errors_total.inc();
        emit(refusal(doc, e));
        continue;
      }
      backend.submit(std::move(req), emit);
    }
    return;
  }

  std::string line;
  while (std::getline(in, line)) {
    std::string_view view(line);
    while (!view.empty() && (view.front() == ' ' || view.front() == '\t')) view.remove_prefix(1);
    while (!view.empty() && (view.back() == '\r' || view.back() == ' ')) view.remove_suffix(1);
    if (view.empty() || view.front() == '#') {
      // Two comment directives make replayed transcripts deterministic:
      // "#pause" queues everything until "#resume", forcing the requests in
      // between into one batch regardless of machine speed.
      if (view == "#pause") backend.pause();
      if (view == "#resume") backend.resume();
      continue;
    }

    json::Value doc;
    Request req;
    try {
      doc = parse_request_json(view);
      req = parse_request_doc(doc);
    } catch (const ProtocolError& e) {
      backend.metrics().errors_total.inc();
      emit(refusal(doc, e));
      continue;
    }
    backend.submit(std::move(req), emit);
  }
}

void run_jsonl(std::istream& in, std::ostream& out, const EngineOptions& options) {
  ServiceOptions sopts;
  sopts.engine = options;
  sopts.framing = Framing::kJsonl;
  run_service(in, out, sopts);
}

}  // namespace rcfg::service
