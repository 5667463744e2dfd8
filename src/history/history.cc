#include "src/history/history.h"

namespace mpcn {

void HistoryRecorder::record(Event e) {
  std::lock_guard<std::mutex> lk(m_);
  events_.push_back(std::move(e));
}

std::size_t HistoryRecorder::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return events_.size();
}

void HistoryRecorder::reset() {
  std::lock_guard<std::mutex> lk(m_);
  events_.clear();
}

}  // namespace mpcn
