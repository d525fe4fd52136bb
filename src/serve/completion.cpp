#include "robusthd/serve/completion.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace robusthd::serve {

CompletionQueue::CompletionQueue()
    : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd_ < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "serve::CompletionQueue: eventfd");
  }
}

CompletionQueue::~CompletionQueue() { ::close(fd_); }

void CompletionQueue::ring() noexcept {
  const std::uint64_t one = 1;
  // Only EAGAIN (counter saturated, so already readable) can fail here.
  [[maybe_unused]] const auto n = ::write(fd_, &one, sizeof one);
}

void CompletionQueue::push(std::uint64_t tag, CompletionStatus status,
                           const Response& response) {
  bool ring_now = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    items_.push_back({tag, status, response});
    ring_now = !rung_;
    rung_ = true;
  }
  if (ring_now) ring();
}

void CompletionQueue::notify() noexcept { ring(); }

void CompletionQueue::drain(std::vector<Completion>& out) {
  out.clear();
  // Clear the doorbell before taking the items: a push that lands after
  // the swap below sees rung_ == false and rings again, so no completion
  // can sit in the queue with the doorbell silent.
  std::uint64_t count = 0;
  [[maybe_unused]] const auto n = ::read(fd_, &count, sizeof count);
  const std::lock_guard<std::mutex> lock(mutex_);
  out.swap(items_);
  rung_ = false;
}

CompletionTarget::CompletionTarget(CompletionTarget&& other) noexcept
    : promise_(std::move(other.promise_)),
      queue_(std::move(other.queue_)),
      tag_(other.tag_) {
  other.promise_.reset();
}

CompletionTarget& CompletionTarget::operator=(
    CompletionTarget&& other) noexcept {
  if (this != &other) {
    complete(CompletionStatus::kDropped, Response{});
    promise_ = std::move(other.promise_);
    queue_ = std::move(other.queue_);
    tag_ = other.tag_;
    other.promise_.reset();
  }
  return *this;
}

void CompletionTarget::complete(CompletionStatus status,
                                const Response& response) noexcept {
  if (queue_) {
    queue_->push(tag_, status, response);
    queue_.reset();
  } else if (promise_) {
    if (status == CompletionStatus::kDropped) {
      promise_->set_exception(std::make_exception_ptr(
          std::runtime_error("serve::Server is shut down")));
    } else {
      promise_->set_value(response);
    }
    promise_.reset();
  }
}

}  // namespace robusthd::serve
