// A small-buffer-optimized, move-only callable for the event-queue hot path.
//
// std::function heap-allocates for captures beyond ~16 bytes and dispatches
// through RTTI-adorned vtables; every simulated event used to pay that cost.
// BasicInlineAction stores callables up to `Capacity` bytes inline and
// dispatches through plain function pointers, falling back to a single heap
// allocation only for oversized, over-aligned or throwing-move captures.
// The event queue moves an action once, into a pooled event node, and runs
// it there: no tier or heap sift relocates it (the wire band's heap orders
// POD entries that point at the nodes). That one move is a fixed-size
// memcpy for trivially copyable and heap-backed callables; only
// non-trivial inline captures pay an indirect call to a per-type manager.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace svmsim::engine {

template <std::size_t Capacity>
class BasicInlineAction {
  static_assert(Capacity >= sizeof(void*), "buffer must hold a pointer");

 public:
  static constexpr std::size_t kCapacity = Capacity;

  BasicInlineAction() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, BasicInlineAction> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  BasicInlineAction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (stores_inline_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); };
      if constexpr (std::is_trivially_copyable_v<Fn> &&
                    std::is_trivially_destructible_v<Fn>) {
        kind_ = Kind::kTrivialInline;
      } else {
        kind_ = Kind::kManagedInline;
        manage_ = [](Op op, void* self, void* dst) {
          Fn* fn = std::launder(reinterpret_cast<Fn*>(self));
          if (op == Op::kRelocate) {
            ::new (dst) Fn(std::move(*fn));
          }
          fn->~Fn();
        };
      }
    } else {
      void* p = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof(p));
      kind_ = Kind::kHeap;
      invoke_ = [](void* s) {
        void* p;
        std::memcpy(&p, s, sizeof(p));
        (*static_cast<Fn*>(p))();
      };
      manage_ = [](Op, void* self, void*) {
        void* p;
        std::memcpy(&p, self, sizeof(p));
        delete static_cast<Fn*>(p);
      };
    }
  }

  BasicInlineAction(BasicInlineAction&& other) noexcept { adopt(other); }

  BasicInlineAction& operator=(BasicInlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      adopt(other);
    }
    return *this;
  }

  BasicInlineAction(const BasicInlineAction&) = delete;
  BasicInlineAction& operator=(const BasicInlineAction&) = delete;

  ~BasicInlineAction() { reset(); }

  void operator()() {
    assert(invoke_ && "calling an empty action");
    invoke_(buf_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  /// True if the stored callable lives in the inline buffer (introspection
  /// for tests; an empty action reports false).
  [[nodiscard]] bool stores_inline() const noexcept {
    return invoke_ != nullptr && kind_ != Kind::kHeap;
  }

  /// Whether a callable of type F would be stored inline (vs heap).
  template <typename F>
  static constexpr bool stores_inline_v =
      sizeof(std::decay_t<F>) <= Capacity &&
      alignof(std::decay_t<F>) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

 private:
  enum class Op : std::uint8_t { kDestroy, kRelocate };
  enum class Kind : std::uint8_t { kTrivialInline, kManagedInline, kHeap };

  void adopt(BasicInlineAction& other) noexcept {
    if (!other.invoke_) return;
    if (other.kind_ == Kind::kManagedInline) {
      other.manage_(Op::kRelocate, other.buf_, buf_);
    } else {
      // Trivially copyable inline state and heap pointers alike relocate by
      // a fixed-size copy; the moved-from side is dropped without a destroy.
      std::memcpy(buf_, other.buf_, Capacity);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    kind_ = other.kind_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() noexcept {
    if (invoke_ && kind_ != Kind::kTrivialInline) {
      manage_(Op::kDestroy, buf_, nullptr);
    }
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Op, void*, void*);

  alignas(void*) unsigned char buf_[Capacity];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;  // null for trivially copyable inline state
  Kind kind_ = Kind::kTrivialInline;
};

}  // namespace svmsim::engine
