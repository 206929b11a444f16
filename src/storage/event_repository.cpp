#include "storage/event_repository.hpp"

namespace dml::storage {

std::vector<bgl::Event> materialize(const EventRepository& repo,
                                    TimeSec begin, TimeSec end) {
  std::vector<bgl::Event> events;
  auto cursor = repo.scan(begin, end);
  while (cursor->next(events, kDefaultScanBatch) > 0) {
  }
  return events;
}

void for_each_batch(
    const EventRepository& repo, TimeSec begin, TimeSec end,
    const std::function<void(std::span<const bgl::Event>)>& fn) {
  auto cursor = repo.scan(begin, end);
  std::vector<bgl::Event> batch;
  while (cursor->next(batch, kDefaultScanBatch) > 0) {
    fn(batch);
    batch.clear();
  }
}

std::vector<std::size_t> fatal_per_day(const EventRepository& repo,
                                       TimeSec origin, TimeSec end_time) {
  std::vector<std::size_t> counts;
  if (end_time <= origin) return counts;
  counts.assign(
      static_cast<std::size_t>((end_time - origin + kSecondsPerDay - 1) /
                               kSecondsPerDay),
      0);
  for_each_batch(repo, origin, end_time, [&](auto batch) {
    for (const auto& event : batch) {
      if (event.fatal) {
        ++counts[static_cast<std::size_t>(day_index(event.time, origin))];
      }
    }
  });
  return counts;
}

std::vector<TimeSec> fatal_times(const EventRepository& repo) {
  std::vector<TimeSec> times;
  if (repo.size() == 0) return times;
  for_each_batch(repo, repo.first_time(), repo.last_time() + 1,
                 [&](auto batch) {
                   for (const auto& event : batch) {
                     if (event.fatal) times.push_back(event.time);
                   }
                 });
  return times;
}

}  // namespace dml::storage
