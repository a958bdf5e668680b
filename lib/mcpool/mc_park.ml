(* The eventcount behind idle parking (see mc_park.mli for the protocol
   and why its order is the one that cannot lose a wakeup). *)

module type PARK = sig
  type t

  val create : unit -> t

  val park : ?on_block:(unit -> unit) -> t -> ready:(unit -> bool) -> bool

  val notify : t -> unit

  val sleepers : t -> int
end

module Make (P : Mc_prim.S) : PARK = struct
  (* The epoch and the sleeper count share one padded word, so that
     registering reads the epoch in the same step, and a notify can move
     the epoch and consume every registration at once: later notifies then
     see no sleeper and stay on their one-load fast path until someone
     parks again, instead of re-broadcasting (and fighting the woken
     thread for the lock) on every add. *)
  let count_bits = 20

  let count_mask = (1 lsl count_bits) - 1

  let epoch_of w = w lsr count_bits

  type t = {
    word : int P.Atomic.t; (* epoch lsl count_bits + unconsumed sleepers *)
    lock : P.Mutex.t;
    cond : P.Condition.t;
  }

  let create () =
    { word = P.Atomic.make_padded 0; lock = P.Mutex.create (); cond = P.Condition.create () }

  let with_lock t f =
    P.Mutex.lock t.lock;
    match f () with
    | v ->
      P.Mutex.unlock t.lock;
      v
    | exception e ->
      P.Mutex.unlock t.lock;
      raise e

  (* Withdraw a registration no notify has consumed yet; once the epoch has
     moved there is nothing left to withdraw. *)
  let rec cancel t seen =
    let w = P.Atomic.get t.word in
    if epoch_of w = seen && not (P.Atomic.compare_and_set t.word w (w - 1)) then
      cancel t seen

  let park ?(on_block = ignore) t ~ready =
    let seen = epoch_of (P.Atomic.fetch_and_add t.word 1) in
    if ready () then begin
      cancel t seen;
      false
    end
    else begin
      on_block ();
      (* The epoch is re-read under the lock a notifier must pass through
         before it broadcasts, so a move between this check and the wait
         is seen by the check or answered by the broadcast. *)
      with_lock t (fun () ->
          while epoch_of (P.Atomic.get t.word) = seen do
            (* lint: allow blocking-under-lock -- the condition wait releases the lock while it blocks; this is the eventcount's one wait site *)
            P.Condition.wait t.cond t.lock
          done);
      true
    end

  let rec notify t =
    let w = P.Atomic.get t.word in
    if w land count_mask <> 0 then
      if P.Atomic.compare_and_set t.word w ((w lor count_mask) + 1) then begin
        (* Passing through the lock after the epoch moved means no sleeper
           is between its epoch check and its wait: each either saw the
           new epoch or is already waiting. The broadcast then goes out
           with the lock free, so a woken sleeper does not wake into a
           held lock and block a second time. *)
        with_lock t ignore;
        P.Condition.broadcast t.cond
      end
      else notify t

  let sleepers t = P.Atomic.get t.word land count_mask
end

include Make (Mc_prim.Real)
