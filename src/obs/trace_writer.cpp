#include "obs/trace_writer.hpp"

namespace drowsy::obs {

namespace {
// Trace Event Format timestamps are microseconds; SimTime is milliseconds.
// Both integral, so ts stays exact.
std::int64_t to_us(util::SimTime t) { return static_cast<std::int64_t>(t) * 1000; }
}  // namespace

TraceWriter::TraceWriter(std::string process_name)
    : process_name_(std::move(process_name)) {}

std::uint32_t TraceWriter::add_track(const std::string& name) {
  const std::uint32_t tid = next_tid_++;
  tracks_.emplace_back(tid, name);
  return tid;
}

expctl::Json TraceWriter::event_base(const char* phase, std::uint32_t track,
                                     const std::string& name, util::SimTime at) const {
  expctl::Json e = expctl::Json::object();
  e.set("name", expctl::Json(name));
  e.set("ph", expctl::Json(phase));
  e.set("ts", expctl::Json(to_us(at)));
  e.set("pid", expctl::Json(std::int64_t{1}));
  e.set("tid", expctl::Json(static_cast<std::int64_t>(track)));
  return e;
}

void TraceWriter::add_slice(std::uint32_t track, const std::string& name,
                            util::SimTime start, util::SimTime end, expctl::Json args) {
  expctl::Json e = event_base("X", track, name, start);
  e.set("dur", expctl::Json(to_us(end) - to_us(start)));
  if (args.is_object()) e.set("args", std::move(args));
  events_.push_back(std::move(e));
}

void TraceWriter::add_instant(std::uint32_t track, const std::string& name,
                              util::SimTime at, expctl::Json args) {
  expctl::Json e = event_base("i", track, name, at);
  e.set("s", expctl::Json("t"));  // thread-scoped instant
  if (args.is_object()) e.set("args", std::move(args));
  events_.push_back(std::move(e));
}

std::string TraceWriter::dump() const {
  expctl::Json doc = expctl::Json::object();
  expctl::Json rows = expctl::Json::array();

  expctl::Json pname = expctl::Json::object();
  pname.set("name", expctl::Json("process_name"));
  pname.set("ph", expctl::Json("M"));
  pname.set("pid", expctl::Json(std::int64_t{1}));
  expctl::Json pargs = expctl::Json::object();
  pargs.set("name", expctl::Json(process_name_));
  pname.set("args", std::move(pargs));
  rows.push_back(std::move(pname));

  for (const auto& [tid, name] : tracks_) {
    expctl::Json tname = expctl::Json::object();
    tname.set("name", expctl::Json("thread_name"));
    tname.set("ph", expctl::Json("M"));
    tname.set("pid", expctl::Json(std::int64_t{1}));
    tname.set("tid", expctl::Json(static_cast<std::int64_t>(tid)));
    expctl::Json targs = expctl::Json::object();
    targs.set("name", expctl::Json(name));
    tname.set("args", std::move(targs));
    rows.push_back(std::move(tname));
    // Pin the sidebar order to registration order (Perfetto sorts rows
    // by thread_sort_index before name).
    expctl::Json tsort = expctl::Json::object();
    tsort.set("name", expctl::Json("thread_sort_index"));
    tsort.set("ph", expctl::Json("M"));
    tsort.set("pid", expctl::Json(std::int64_t{1}));
    tsort.set("tid", expctl::Json(static_cast<std::int64_t>(tid)));
    expctl::Json sargs = expctl::Json::object();
    sargs.set("sort_index", expctl::Json(static_cast<std::int64_t>(tid)));
    tsort.set("args", std::move(sargs));
    rows.push_back(std::move(tsort));
  }

  for (const expctl::Json& e : events_) rows.push_back(e);

  doc.set("traceEvents", std::move(rows));
  doc.set("displayTimeUnit", expctl::Json("ms"));
  return doc.dump(2);
}

}  // namespace drowsy::obs
