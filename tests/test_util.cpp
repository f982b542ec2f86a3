#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>

#include "util/profiler.h"
#include "util/table_writer.h"

using namespace landau;

TEST(Profiler, AccumulatesTimeAndCount) {
  auto& p = Profiler::instance();
  p.reset();
  const int id = p.event_id("test:event");
  for (int i = 0; i < 3; ++i) {
    ScopedEvent ev(id);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(p.count("test:event"), 3);
  EXPECT_GE(p.seconds("test:event"), 0.005);
  EXPECT_LT(p.seconds("test:event"), 1.0);
}

TEST(Profiler, NestedEventsBothAccumulate) {
  auto& p = Profiler::instance();
  p.reset();
  {
    ScopedEvent outer("test:outer");
    ScopedEvent inner("test:inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(p.count("test:outer"), 1);
  EXPECT_EQ(p.count("test:inner"), 1);
  EXPECT_GE(p.seconds("test:outer"), p.seconds("test:inner") * 0.9);
}

TEST(Profiler, UnknownEventReadsZero) {
  EXPECT_EQ(Profiler::instance().seconds("test:never-used"), 0.0);
  EXPECT_EQ(Profiler::instance().count("test:never-used"), 0);
}

TEST(Profiler, ResetZeroesAccumulators) {
  auto& p = Profiler::instance();
  {
    ScopedEvent ev("test:reset-me");
  }
  p.reset();
  EXPECT_EQ(p.count("test:reset-me"), 0);
}

TEST(Profiler, AddExternalTime) {
  auto& p = Profiler::instance();
  p.reset();
  p.add(p.event_id("test:external"), 1.5, 7);
  EXPECT_NEAR(p.seconds("test:external"), 1.5, 1e-6);
  EXPECT_EQ(p.count("test:external"), 7);
}

TEST(Profiler, ReportListsActiveEvents) {
  auto& p = Profiler::instance();
  p.reset();
  p.add(p.event_id("test:visible"), 0.25, 2);
  const auto report = p.report();
  EXPECT_NE(report.find("test:visible"), std::string::npos);
}

// The hot path (end, add_work) reads event slots without the registry lock
// while other threads register names; slots must never move. Under
// LANDAU_SANITIZE=thread this is the race probe (ctest -L sanitize).
TEST(Profiler, ConcurrentRegistrationDuringEvents) {
  auto& p = Profiler::instance();
  auto& tracer = obs::Tracer::instance();
  p.reset();
  const int id = p.event_id("test:concurrent");
  std::atomic<bool> started{false}, done{false};
  long loops = 0;
  tracer.enable();
  std::thread worker([&] {
    while (!done.load(std::memory_order_relaxed)) {
      {
        ScopedEvent ev(id, {{"loop", loops}});
        p.add_work(id, 1, 8);
      }
      ++loops;
      started.store(true, std::memory_order_relaxed);
    }
  });
  while (!started.load(std::memory_order_relaxed)) std::this_thread::yield();
  for (int i = 0; i < 500; ++i) {
    p.event_id("test:concurrent-" + std::to_string(i));
    EXPECT_FALSE(p.snapshot().empty());
  }
  done.store(true, std::memory_order_relaxed);
  worker.join();
  tracer.disable();
  tracer.clear();
  EXPECT_EQ(p.count("test:concurrent"), loops);
}

TEST(TableWriter, AlignsColumnsAndRendersCaption) {
  TableWriter t("my caption");
  t.header({"a", "long-column"});
  t.add_row().cell(1).cell("x");
  t.add_row().cell(12345).cell("yy");
  const auto s = t.str();
  EXPECT_NE(s.find("my caption"), std::string::npos);
  EXPECT_NE(s.find("long-column"), std::string::npos);
  EXPECT_NE(s.find("12345"), std::string::npos);
}

TEST(TableWriter, RowWidthMismatchThrows) {
  TableWriter t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), landau::Error);
}

TEST(TableWriter, WritesCsv) {
  TableWriter t;
  t.header({"x", "y"});
  t.add_row().cell(1).cell(2.5, 1);
  const std::string path = "/tmp/landau_test_table.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "x,y");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2.5");
}

TEST(TableWriter, NumericFormattingPrecision) {
  TableWriter t;
  t.add_row().cell(3.14159, 2);
  EXPECT_NE(t.str().find("3.14"), std::string::npos);
  EXPECT_EQ(t.str().find("3.142"), std::string::npos);
}
