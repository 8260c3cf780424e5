(* One fan-out per call: the caller and [helpers] freshly spawned
   domains claim element indices from one atomic counter until the
   input is exhausted, and the caller joins every helper before it
   reads the result slots.  [spawned] is the process-wide count of live
   helpers, so nested and concurrent calls stay within one
   machine-sized budget instead of multiplying it. *)

let c_workers = Obs.Counter.make "par.workers"
let c_tasks = Obs.Counter.make "par.tasks"
let h_pool_ms = Obs.Histogram.make "par.pool_ms"
let override = ref None
let spawned = Atomic.make 0

let domains () =
  match !override with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

(* Reserves up to [want] helper slots; 0 when the budget is spent. *)
let rec claim want =
  let live = Atomic.get spawned in
  let n = Int.min want (domains () - 1 - live) in
  if n <= 0 then 0
  else if Atomic.compare_and_set spawned live (live + n) then n
  else claim want

let fan_out f arr helpers =
  let n = Array.length arr in
  let t0 = Unix.gettimeofday () in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec drain () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some (try Ok (f arr.(i)) with e -> Error (e, Printexc.get_raw_backtrace ()));
      drain ()
    end
  in
  (* a domain the runtime refuses leaves its share to the others *)
  let rec spawn k acc =
    if k = 0 then acc
    else
      match Domain.spawn drain with
      | d -> spawn (k - 1) (d :: acc)
      | exception Failure _ -> acc
  in
  let others = spawn helpers [] in
  Obs.Counter.add c_workers (List.length others);
  Obs.Counter.add c_tasks n;
  drain ();
  (* joining publishes every helper's slot writes to the caller *)
  List.iter Domain.join others;
  ignore (Atomic.fetch_and_add spawned (-helpers));
  Obs.Histogram.observe h_pool_ms ((Unix.gettimeofday () -. t0) *. 1000.0);
  (* every slot has settled; Array.map visits slots in index order, so
     the lowest-index failure re-raises deterministically *)
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
       results)

let map f xs =
  match xs with
  | [] | [ _ ] -> List.map f xs
  | _ -> (
      let arr = Array.of_list xs in
      match claim (Array.length arr - 1) with
      | 0 -> List.map f xs
      | helpers -> fan_out f arr helpers)

module For_testing = struct
  let with_domains n f =
    let previous = !override in
    override := Some (Int.max 1 n);
    Fun.protect ~finally:(fun () -> override := previous) f
end
