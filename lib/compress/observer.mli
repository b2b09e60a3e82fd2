(** The external observer's view of one protocol copy.

    Tracks the exact posterior over inputs given the transcript so far,
    from which the observer's next-message prior [nu] — the footnote-3
    prediction of Section 6 — is computed. The speaker's true law [eta]
    depends on its input; both are produced here so the compressor can
    be driven round by round. States are shared, within one domain:
    each builds its successor on a message or coin once, so the states
    walked from one root form a trie keyed by transcript, and each
    computes its [speak_view] once, at first use. *)

type 'a t

val create : 'a Proto.Tree.t -> 'a array Prob.Dist_exact.t -> 'a t
val finished : 'a t -> bool

val output_exn : 'a t -> int
(** @raise Invalid_argument while the protocol is still running. *)

val speak_view : 'a t -> (int * int * float array) option
(** At a [Speak] node: [(speaker, arity, nu)] with [nu] the observer's
    normalized next-message prediction; [None] elsewhere. *)

val speaker_eta : 'a t -> 'a -> float array
(** The true next-message law given the speaker's actual input.
    @raise Invalid_argument unless at a [Speak] node. *)

val advance_msg : 'a t -> int -> 'a t
(** Advance past a [Speak] node on a message, updating the posterior by
    the per-input emission likelihood. *)

val chance_view : 'a t -> float array option
(** At a [Chance] node: the public-coin law. *)

val advance_coin : 'a t -> int -> 'a t
