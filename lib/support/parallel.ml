let available_domains () = max 1 (Domain.recommended_domain_count ())

let map_result ?jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let jobs =
      let requested = match jobs with Some j -> j | None -> available_domains () in
      max 1 (min requested n)
    in
    (* One slot per item: written exactly once by whichever domain claims
       the index, read only after every worker has been joined, so the
       joins provide the necessary happens-before edges. *)
    let out = Array.make n None in
    let run i = out.(i) <- Some (try Ok (f arr.(i)) with e -> Error e) in
    if jobs = 1 then
      for i = 0 to n - 1 do
        run i
      done
    else begin
      let next = Atomic.make 0 in
      let worker () =
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            run i;
            go ()
          end
        in
        go ()
      in
      let spawned = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join spawned
    end;
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> assert false (* every index was claimed before the joins *))
         out)
  end

let map ?jobs f items =
  let results = map_result ?jobs f items in
  List.map (function Ok v -> v | Error e -> raise e) results

let map_range ?jobs ?chunk ~n f =
  if n < 0 then invalid_arg "Parallel.map_range";
  if n = 0 then []
  else begin
    let jobs =
      let requested = match jobs with Some j -> j | None -> available_domains () in
      max 1 (min requested n)
    in
    let chunk =
      match chunk with
      | Some c ->
        if c <= 0 then invalid_arg "Parallel.map_range: chunk must be positive";
        c
      | None ->
        (* Small enough that an uneven last worker cannot idle the rest
           of the pool for long, large enough that the atomic claim is
           amortized over many indices. *)
        max 1 (n / (jobs * 8))
    in
    let nchunks = (n + chunk - 1) / chunk in
    let bounds i = (i * chunk, min n ((i + 1) * chunk)) in
    if jobs = 1 then
      List.init nchunks (fun i ->
          let lo, hi = bounds i in
          f ~lo ~hi)
    else begin
      (* Same slot-per-claim scheme as [map_result], but the atomic
         cursor claims whole chunks: a 10k-block grid costs ~tens of
         claims, not 10k. *)
      let out = Array.make nchunks None in
      let next = Atomic.make 0 in
      let worker () =
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < nchunks then begin
            let lo, hi = bounds i in
            out.(i) <- Some (try Ok (f ~lo ~hi) with e -> Error e);
            go ()
          end
        in
        go ()
      in
      let spawned = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join spawned;
      Array.to_list out
      |> List.map (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
    end
  end

(* --- persistent pool ------------------------------------------------ *)

module Pool = struct
  type t = {
    mutex : Mutex.t;
    cond : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable closed : bool;
    mutable workers : unit Domain.t list;
    n_domains : int;
  }

  let size t = t.n_domains

  let worker pool () =
    let rec loop () =
      Mutex.lock pool.mutex;
      let rec next () =
        if pool.closed then None
        else if Queue.is_empty pool.queue then begin
          Condition.wait pool.cond pool.mutex;
          next ()
        end
        else Some (Queue.pop pool.queue)
      in
      let task = next () in
      Mutex.unlock pool.mutex;
      match task with
      | None -> ()
      | Some task ->
        (* A raising task must not take its worker domain down with it. *)
        (try task () with _ -> ());
        loop ()
    in
    loop ()

  let create ?domains () =
    let n_domains =
      max 1 (match domains with Some d -> d | None -> available_domains ())
    in
    let pool =
      {
        mutex = Mutex.create ();
        cond = Condition.create ();
        queue = Queue.create ();
        closed = false;
        workers = [];
        n_domains;
      }
    in
    pool.workers <- List.init n_domains (fun _ -> Domain.spawn (worker pool));
    pool

  let submit t task =
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Parallel.Pool.submit: pool is shut down"
    end;
    Queue.push task t.queue;
    Condition.signal t.cond;
    Mutex.unlock t.mutex

  let shutdown t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers
end
