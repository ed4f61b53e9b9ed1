/**
 * @file
 * Fixed-capacity circular FIFO.
 *
 * TMU data streams are hardware circular queues carved out of the
 * per-lane storage; capacity is fixed at configuration time and overflow
 * is a programming error (the FSMs check space before pushing).
 */

#pragma once

#include <cstddef>
#include <vector>

#include "common/log.hpp"

namespace tmu {

/** Bounded FIFO with O(1) push/pop and random peek from the head. */
template <typename T>
class CircularQueue
{
  public:
    CircularQueue() = default;

    explicit CircularQueue(std::size_t capacity) { reset(capacity); }

    /** Drop all contents and set a new capacity. */
    void
    reset(std::size_t capacity)
    {
        TMU_ASSERT(capacity > 0);
        // clear+resize (not assign) so move-only element types work.
        buf_.clear();
        buf_.resize(capacity);
        head_ = 0;
        size_ = 0;
    }

    std::size_t capacity() const { return buf_.size(); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == buf_.size(); }
    std::size_t space() const { return buf_.size() - size_; }

    void
    push(T v)
    {
        pushSlot() = std::move(v);
    }

    /**
     * Append a slot and return it without resetting it: the slot still
     * holds whatever element last occupied it (default-constructed on
     * first use), so the caller overwrites every field and may reuse
     * that element's heap storage.
     */
    T &
    pushSlot()
    {
        TMU_ASSERT(!full(), "circular queue overflow (capacity %zu)",
                   buf_.size());
        T &slot = buf_[wrap(head_ + size_)];
        ++size_;
        return slot;
    }

    /** Element at distance @p i from the head (i = 0 is the head). */
    const T &
    peek(std::size_t i = 0) const
    {
        TMU_ASSERT(i < size_);
        return buf_[wrap(head_ + i)];
    }

    T &
    peek(std::size_t i = 0)
    {
        TMU_ASSERT(i < size_);
        return buf_[wrap(head_ + i)];
    }

    T
    pop()
    {
        TMU_ASSERT(!empty());
        T v = std::move(buf_[head_]);
        drop();
        return v;
    }

    /** Remove the head, leaving its storage in place for pushSlot. */
    void
    drop()
    {
        TMU_ASSERT(!empty());
        head_ = wrap(head_ + 1);
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    /** Ring index of @p i < 2 * capacity (no division: the ROB's
     *  capacity is not a power of two). */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= buf_.size() ? i - buf_.size() : i;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace tmu
