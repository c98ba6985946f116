(** Per-function lock/atomic/call traversal over Parsetree
    expressions — the flow substrate of the S5xx semantic rules.

    One {!summarize} per top-level definition yields the Mutex
    acquisitions (with release-on-all-paths classification for
    MSOC-S502), the calls made while locks are held (the edges
    MSOC-S504 reasons over), and the [Atomic] check-then-act footprint
    (MSOC-S503).

    Locks are identified syntactically — an ident or a field chain
    rooted in an ident renders to a stable string ([m], [t.lock]);
    anything opaque is excluded from cross-function reasoning. *)

type acquisition = {
  lock : string;
  line : int;
  released : bool;
      (** the critical section provably releases on all exception
          paths: [Mutex.protect], [lock] followed by [Fun.protect], an
          exception-free prefix closed by [Mutex.unlock], or a bare
          acquire-wrapper with no continuation *)
}

type held_call = {
  held : string list;  (** locks held at the call site *)
  callee : Longident.t;
  call_line : int;
}

type summary = {
  acquisitions : acquisition list;
  held_calls : held_call list;
  check_then_act : (string * int) list;
      (** atomics read with [Atomic.get] and later written with
          [Atomic.set] in this definition, with no
          [compare_and_set]/RMW on the same atomic *)
  blocking_sites : (string * int) list;
      (** references to blocking primitives ([Unix] syscalls, channel
          I/O, joins/delays) anywhere in the body; [Condition.wait] is
          deliberately not one — it releases its mutex while waiting *)
  resources : Resource.summary;
      (** acquire/release/forwarding footprint consumed by the S6xx
          interprocedural fixpoint ({!Resource.run}) *)
}

val summarize : Parsetree.expression -> summary

val is_blocking_path : string -> bool
(** Whether a dotted path names a blocking primitive (MSOC-S504). *)
